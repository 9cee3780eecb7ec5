"""Words, presentations, and symmetrized relator sets.

Letters are nonzero integers: ``+k`` is the k-th generator (1-based) and
``-k`` its inverse, so a word is a tuple of nonzero ints.  Tuples hash and
compare cheaply, which every search in this package leans on.  The text
form writes generator k as its lowercase name, the inverse as the matching
uppercase letter, and the empty word as ``1``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Iterable, Iterator, Optional

Word = tuple[int, ...]

EMPTY: Word = ()

_LOWER = string.ascii_lowercase


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def check_count(value, name: str, least: int = 0) -> int:
    """A count, length or radius: an integer (not a bool) of at least ``least``, as an int."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {f'at least {least}' if least else 'nonnegative'}, got {value}")
    return int(value)


def reduce_onto(out: list[int], letters: Iterable[int]) -> tuple[int, int]:
    """Append ``letters`` to ``out``, deleting adjacent inverse pairs as they meet.

    Products and Dehn steps reduce through this loop; the area search
    finds its cancellations at the right seam of a move instead.  A freely
    reduced ``out`` stays freely reduced.  Returns the number of deleted
    pairs and the shortest length ``out`` reached, which is how far the
    cancellation cascaded back into the letters it held before.
    """
    cancels = 0
    low = len(out)
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
            cancels += 1
            if len(out) < low:
                low = len(out)
        else:
            out.append(x)
    return cancels, low


def free_reduce(letters: Iterable[int]) -> Word:
    """Delete adjacent inverse pairs until none remain.

    The result is the unique freely reduced form, independent of the
    order in which pairs are deleted.
    """
    out: list[int] = []
    reduce_onto(out, letters)
    return tuple(out)


def cyclic_reduce(word: Iterable[int]) -> Word:
    """Freely reduce, then strip mutually inverse first/last letters."""
    w = free_reduce(word)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def invert(word: Word) -> Word:
    """Reverse the word and flip every sign."""
    return tuple([-x for x in reversed(word)])


def multiply(*words: Iterable[int]) -> Word:
    """Concatenate words and freely reduce the product."""
    out: list[int] = []
    for w in words:
        reduce_onto(out, w)
    return tuple(out)


def letter_key(letter: int) -> tuple[int, int]:
    # a < a^-1 < b < b^-1 < ...
    return (abs(letter), 0 if letter > 0 else 1)


def shortlex_key(word: Word):
    """Sort key ordering words by length, then letter by letter."""
    return (len(word), tuple(letter_key(x) for x in word))


def rotations(word: Word) -> Iterator[Word]:
    for k in range(max(1, len(word))):
        yield word[k:] + word[:k]


def conjugacy_rep(word: Iterable[int]) -> Word:
    """The least cyclic permutation of ``cyclic_reduce(word)`` or of its
    inverse, in plain tuple order: one word per conjugacy class of the free
    group, up to inversion.  Empty exactly when ``word`` freely reduces to
    the empty word.  Only rotations that start with the least letter of w
    and w^-1 are tried."""
    w = cyclic_reduce(word)
    if not w:
        return w
    m = min(min(w), -max(w))
    return min(v[k:] + v[:k] for v in (w, invert(w)) for k, x in enumerate(v) if x == m)


@dataclass(frozen=True)
class Presentation:
    """Generators plus relators; relators are stored cyclically reduced.

    ``family`` is set only by :func:`standard_presentation` (or a verified
    file tag) and names the construction, never a property inferred from
    the relators.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()
    family: Optional[str] = None

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for name in self.generators:
            # One lowercase letter, so every word has a text form (``in``
            # alone would accept substrings such as "ab").
            if not (len(name) == 1 and name in _LOWER):
                raise ValueError(f"bad generator name: {name!r}")
        n = len(self.generators)
        object.__setattr__(self, "_alphabet", frozenset(range(-n, n + 1)) - {0})
        reduced = []
        for rel in self.relators:
            for x in rel:
                if x not in self._alphabet:
                    raise ValueError(f"relator letter {x} outside alphabet of size {n}")
            r = cyclic_reduce(rel)
            if r:
                reduced.append(r)
        object.__setattr__(self, "relators", tuple(reduced))
        object.__setattr__(self, "generators", tuple(self.generators))
        # Every per-presentation cache hashes its key on each lookup.
        fields = (self.generators, self.relators, self.family)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes differ between
        # processes, so a stored hash must not travel with a pickle.
        return Presentation, (self.generators, self.relators, self.family)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def letters(self) -> tuple[int, ...]:
        """All signed letters in canonical order: a, a^-1, b, b^-1, ..."""
        out = []
        for k in range(1, self.rank + 1):
            out.append(k)
            out.append(-k)
        return tuple(out)

    def check_word(self, word: Word) -> None:
        """Refuse a word with a letter outside the set of ``letters()``, naming the
        first: a value equal to a letter (``np.int64(1)``, ``1.0``) passes, 1.5 does not."""
        # One scan in C; the search runs only to name the first bad letter.
        if not self._alphabet.issuperset(word):
            bad = next(x for x in word if x not in self._alphabet)
            raise ValueError(f"letter {bad} outside alphabet of rank {self.rank}")


@dataclass(frozen=True)
class SymmetrizedRelatorSet:
    """All cyclic permutations of every relator and every inverted relator.

    ``trie`` is their prefix trie: a node maps letter to child, and key 0,
    never a letter, holds ``(member, depth, invert(member[depth:]))`` for the
    shortlex-first member that the path to the node covers by a majority.
    ``inverted_suffixes[i][cut]`` is ``invert(members[i][cut:])``.
    """

    members: tuple[Word, ...]
    max_length: int
    trie: dict = field(compare=False, repr=False)
    inverted_suffixes: tuple[tuple[Word, ...], ...] = field(compare=False, repr=False)

    def majority_prefix(self, letters: Iterable[int]) -> Optional[tuple[Word, int, Word]]:
        """The record of the longest majority prefix of ``letters``, or None."""
        best = None
        node = self.trie
        for x in letters:
            node = node.get(x)
            if node is None:
                break
            best = node.get(0, best)
        return best


@lru_cache(maxsize=None)
def symmetrize(presentation: Presentation) -> SymmetrizedRelatorSet:
    seen: set[Word] = set()
    for rel in presentation.relators:
        for form in (rel, invert(rel)):
            for rot in rotations(form):
                seen.add(rot)
    members = tuple(sorted(seen, key=shortlex_key))
    suffixes = tuple(tuple(invert(m[cut:]) for cut in range(len(m) + 1)) for m in members)
    trie: dict = {}
    for m, inverted in zip(members, suffixes):
        node = trie
        for depth, x in enumerate(m, 1):
            node = node.setdefault(x, {})
            if 2 * depth > len(m) and 0 not in node:
                node[0] = (m, depth, inverted[depth])
    max_length = max((len(m) for m in members), default=0)
    return SymmetrizedRelatorSet(members, max_length, trie, suffixes)


@lru_cache(maxsize=None)
def small_cancellation(presentation: Presentation) -> bool:
    """Whether the relators satisfy the metric small-cancellation condition
    C'(1/6): every piece ``u`` of a symmetrized member ``r`` has
    ``6|u| < |r|``, where a piece is a common prefix of two distinct members.

    Under it, Greendlinger's lemma puts more than half of some member in
    every freely reduced nonempty identity word, so Dehn's algorithm decides
    the word problem.  False whenever a relator is a proper power, whose
    pieces need a finer definition.
    """
    # A word has fewer distinct rotations than letters exactly when it is a power.
    if any(len(set(rotations(r))) < len(r) for r in presentation.relators):
        return False
    # In tuple order, a member's longest piece is shared with a sorted neighbour.
    members = sorted(symmetrize(presentation).members)
    for u, v in zip(members, members[1:]):
        shared = next((k for k, (x, y) in enumerate(zip(u, v)) if x != y), min(len(u), len(v)))
        if 6 * shared >= min(len(u), len(v)):
            return False
    return True


def standard_presentation(family: str, param: int = 0) -> Presentation:
    """Build one of the named families: ``free``, ``zz``, or ``surface``.

    ``free`` takes the rank (>= 1), ``surface`` the genus (>= 2, per the
    range on which greedy relator rewriting is reliable), and ``zz``
    ignores the parameter.
    """
    if family == "free":
        if param < 1:
            raise ValueError("free family needs rank >= 1")
        if param > 26:
            raise ValueError("text alphabet supports at most 26 generators")
        return Presentation(tuple(_LOWER[:param]), (), family="free")
    if family == "zz":
        return Presentation(("a", "b"), ((1, 2, -1, -2),), family="zz")
    if family == "surface":
        if param < 2:
            raise ValueError("surface family needs genus >= 2")
        if 2 * param > 26:
            raise ValueError("text alphabet supports at most 26 generators")
        gens = tuple(_LOWER[: 2 * param])
        relator: list[int] = []
        for i in range(param):
            x, y = 2 * i + 1, 2 * i + 2
            relator += [x, y, -x, -y]
        return Presentation(gens, (tuple(relator),), family="surface")
    raise ValueError(f"unknown family: {family!r}")


# ---------------------------------------------------------------------------
# text format


def parse_word(text: str, presentation: Presentation, line: int = 1) -> Word:
    """Parse a bare word like ``aaBc``; ``1`` (or empty) is the empty word."""
    if text in ("", "1"):
        return EMPTY
    table = {}
    for i, name in enumerate(presentation.generators):
        table[name] = i + 1
        table[name.upper()] = -(i + 1)
    out = []
    for col, ch in enumerate(text, start=1):
        try:
            out.append(table[ch])
        except KeyError:
            raise ParseError(f"invalid word character {ch!r}", line, col) from None
    return tuple(out)


def format_word(word: Word, presentation: Presentation) -> str:
    if not word:
        return "1"
    names = presentation.generators
    return "".join(names[x - 1] if x > 0 else names[-x - 1].upper() for x in word)


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation text format.

    Line 1 is ``gens: a b``, then one ``rels: abAB`` line per relator.  An
    optional ``family: zz`` / ``family: surface 2`` / ``family: free 2``
    line tags the presentation as one of the standard constructions; the
    tag is accepted only if the file matches that builder's output
    letter for letter.
    """
    gens: Optional[tuple[str, ...]] = None
    rel_texts: list[tuple[str, int]] = []
    family_decl: Optional[tuple[str, Optional[int], int]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'gens:', 'rels:' or 'family:'", lineno, 1)
        head, _, rest = line.partition(":")
        head = head.strip()
        rest = rest.strip()
        if head == "gens":
            if gens is not None:
                raise ParseError("duplicate gens line", lineno, 1)
            names = tuple(rest.split())
            if not names:
                raise ParseError("empty generator list", lineno, len(line) + 1)
            for name in names:
                if len(name) != 1 or name not in _LOWER:
                    raise ParseError(f"generator {name!r} is not a lowercase letter", lineno, 1)
            gens = names
        elif head == "rels":
            rel_texts.append((rest, lineno))
        elif head == "family":
            if family_decl is not None:
                raise ParseError("duplicate family line", lineno, 1)
            parts = rest.split()
            if len(parts) == 1:
                family_decl = (parts[0], None, lineno)
            elif len(parts) == 2 and parts[1].isdigit():
                family_decl = (parts[0], int(parts[1]), lineno)
            else:
                raise ParseError(f"bad family declaration {rest!r}", lineno, 1)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)
    if gens is None:
        raise ParseError("missing gens line", 1, 1)
    plain = Presentation(gens, ())
    relators = tuple(parse_word(t, plain, line=ln) for t, ln in rel_texts)
    result = Presentation(gens, relators)
    if family_decl is not None:
        fam, param, lineno = family_decl
        try:
            built = standard_presentation(fam, param if param is not None else 0)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from None
        if built.generators != result.generators or built.relators != result.relators:
            raise ParseError(
                f"file does not match the standard {fam} presentation", lineno, 1
            )
        result = built
    return result


def format_presentation(presentation: Presentation) -> str:
    lines = ["gens: " + " ".join(presentation.generators)]
    for rel in presentation.relators:
        lines.append("rels: " + format_word(rel, presentation))
    if presentation.family is not None:
        # The generators fix the parameter: free n has rank n, surface g
        # rank 2g, and zz takes none.
        param = {"free": f" {presentation.rank}", "surface": f" {presentation.rank // 2}"}
        lines.append(f"family: {presentation.family}{param.get(presentation.family, '')}")
    return "\n".join(lines) + "\n"
