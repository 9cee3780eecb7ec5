import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupgeom.bench import WordSource, run_bench
from groupgeom.cayley import all_geodesics, build_ball
from groupgeom.dehn import dehn_reduce, verify_dehn_presentation
from groupgeom.hplane import random_triangles, verify_thinness_bound
from groupgeom.isoperimetry import AreaCaps, area, default_caps, dehn_function
from groupgeom.oracle import (
    canonical_form,
    exhaustive_identity_words,
    generate_null_homotopic,
    words_equal,
)
from groupgeom.qi import compare_metrics
from groupgeom.thinness import triangle_thinness
from groupgeom.words import (
    EMPTY,
    ParseError,
    Presentation,
    check_count,
    conjugacy_rep,
    cyclic_reduce,
    format_presentation,
    format_word,
    free_reduce,
    invert,
    multiply,
    parse_presentation,
    parse_word,
    rotations,
    shortlex_key,
    small_cancellation,
    standard_presentation,
    symmetrize,
)

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)

letters_f2 = st.sampled_from([1, -1, 2, -2])
words_f2 = st.lists(letters_f2, max_size=24).map(tuple)


def w(text, pres=ZZ):
    return parse_word(text, pres)


def test_free_reduce_examples():
    assert free_reduce(w("aAb")) == w("b")
    assert free_reduce(w("aaabb")) == w("aaabb")
    assert free_reduce(w("abBA")) == EMPTY


def test_cyclic_reduce_examples():
    assert cyclic_reduce(w("abA")) == w("b")
    assert cyclic_reduce(w("abAB")) == w("abAB")
    assert cyclic_reduce(EMPTY) == EMPTY


def test_invert_examples():
    assert invert(w("ab")) == w("BA")
    assert invert(EMPTY) == EMPTY
    assert invert(parse_word("dCD", SURF2)) == parse_word("dcD", SURF2)


def _random_order_reduce(word, rng):
    # Independent reducer: delete a randomly chosen adjacent inverse pair
    # until none remains.
    work = list(word)
    while True:
        spots = [i for i in range(len(work) - 1) if work[i] == -work[i + 1]]
        if not spots:
            return tuple(work)
        i = rng.choice(spots)
        del work[i : i + 2]


@given(words_f2, st.integers(0, 2**32 - 1))
def test_free_reduce_confluent(word, seed):
    assert free_reduce(word) == _random_order_reduce(word, random.Random(seed))


@given(words_f2)
def test_free_reduce_idempotent_and_parity(word):
    r = free_reduce(word)
    assert free_reduce(r) == r
    assert len(r) <= len(word)
    assert (len(word) - len(r)) % 2 == 0


@given(st.lists(st.integers(-4, 4).filter(bool), max_size=40).map(tuple))
def test_invert_matches_the_generator_form(word):
    assert invert(word) == tuple(-x for x in reversed(word))


@given(words_f2)
def test_invert_involution_and_cancellation(word):
    assert invert(invert(word)) == tuple(word)
    assert multiply(word, invert(word)) == EMPTY


def test_symmetrize_zz():
    members = set(symmetrize(ZZ).members)
    expected = {w(t) for t in ("abAB", "bABa", "ABab", "BabA", "baBA", "aBAb", "BAba", "AbaB")}
    assert members == expected


def test_symmetrize_torsion_like():
    pres = Presentation(("a",), ((1, 1),))
    members = set(symmetrize(pres).members)
    assert members == {(1, 1), (-1, -1)}


def test_symmetrize_free_is_empty():
    assert symmetrize(F2).members == ()


@given(st.lists(st.lists(letters_f2, min_size=1, max_size=8).map(tuple), max_size=3))
def test_symmetrize_size_and_lengths(relators):
    pres = Presentation(("a", "b"), tuple(relators))
    sym = symmetrize(pres)
    assert len(sym.members) <= 2 * sum(len(r) for r in pres.relators)
    lengths = {len(r) for r in pres.relators}
    assert all(len(m) in lengths for m in sym.members)


SMALL_CANCELLATION_CASES = [
    ("surface2", SURF2, True),  # largest piece ratio 1/8
    ("surface3", standard_presentation("surface", 3), True),
    ("surface6", standard_presentation("surface", 6), True),  # 1/24
    ("a-killed", Presentation(("a", "b"), ((1,),)), True),  # no pieces at all
    ("zz", ZZ, False),  # 1/4
    ("aac", Presentation(("a", "c"), ((1, 1, 2),)), False),  # 1/3
    ("torsion", Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2))), False),
    # No two members share a letter up front; only the power check declines.
    ("proper-power", Presentation(("a", "b"), ((1, 2, 1, 2),)), False),
]


@pytest.mark.parametrize(
    "pres, certified",
    [case[1:] for case in SMALL_CANCELLATION_CASES],
    ids=[case[0] for case in SMALL_CANCELLATION_CASES],
)
def test_small_cancellation_verdicts(pres, certified):
    assert small_cancellation(pres) is certified


def _pairwise_small_cancellation(pres):
    """C'(1/6) from every pair of members, with the same power rule."""
    for r in pres.relators:
        if any(rot == r for rot in list(rotations(r))[1:]):
            return False
    members = symmetrize(pres).members
    for u in members:
        for v in members:
            shared = 0
            while u != v and shared < min(len(u), len(v)) and u[shared] == v[shared]:
                shared += 1
            if 6 * shared >= len(u):
                return False
    return True


letters_f4 = st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4])


@given(st.lists(st.lists(letters_f4, min_size=1, max_size=16).map(tuple), max_size=3))
def test_small_cancellation_matches_pairwise_pieces(relators):
    pres = Presentation(("a", "b", "c", "d"), tuple(relators))
    assert small_cancellation(pres) is _pairwise_small_cancellation(pres)


def test_standard_presentations():
    assert ZZ.generators == ("a", "b")
    assert ZZ.relators == ((1, 2, -1, -2),)
    assert SURF2.generators == ("a", "b", "c", "d")
    assert SURF2.relators == (parse_word("abABcdCD", SURF2),)
    assert len(SURF2.relators[0]) == 8
    assert F2.relators == ()
    with pytest.raises(ValueError):
        standard_presentation("surface", 1)
    with pytest.raises(ValueError):
        standard_presentation("free", 0)
    with pytest.raises(ValueError):
        standard_presentation("dihedral")


@pytest.mark.parametrize("name", ["x1", "ab", "\u00e9", "A", ""])
def test_generator_names_are_single_lowercase_letters(name):
    # "ab" in the alphabet string is a substring test and would pass.
    with pytest.raises(ValueError, match="bad generator name"):
        Presentation(("y", name))


def test_presentation_reduces_relators_silently():
    # a (baBA) A cyclically reduces to baBA; aA vanishes entirely.
    pres = Presentation(("a", "b"), ((1, 2, 1, -2, -1, -1), (1, -1)))
    assert pres.relators == ((2, 1, -2, -1),)


@pytest.mark.parametrize(
    "build",
    [
        lambda: standard_presentation("surface", 2),
        lambda: Presentation(SURF2.generators, SURF2.relators),
        lambda: standard_presentation("zz"),
        lambda: Presentation(("a", "b"), ((1, 2, -1, -2),)),
    ],
    ids=["tagged surface", "untagged surface", "tagged zz", "untagged zz"],
)
def test_equal_presentations_hash_equal_and_share_cache_entries(build):
    from groupgeom.isoperimetry import _pairing_forms
    from groupgeom.oracle import _lattice_basis

    p, q = build(), build()
    assert p is not q and p == q and hash(p) == hash(q) and repr(p) == repr(q)
    for cached in (symmetrize, _pairing_forms, _lattice_basis):
        assert cached(p) is cached(q)
    assert pickle.loads(pickle.dumps(p)) == p


def test_the_cached_alphabet_is_no_field_and_is_rebuilt_by_unpickling():
    # check_word's letter set lives beside the fields, like the cached
    # hash, so equality, repr and the pickle see only the three fields.
    assert [f.name for f in fields(Presentation)] == ["generators", "relators", "family"]
    for p in (ZZ, SURF2, F2):
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        assert q._alphabet == p._alphabet == set(p.letters())
        with pytest.raises(ValueError, match=f"^letter {p.rank + 1} outside"):
            q.check_word((1, p.rank + 1))


def test_unpickled_presentation_hashes_like_one_built_in_its_process():
    # String hashes differ between processes, so the cached hash must be
    # recomputed when a pickle is loaded under another hash seed.
    child = (
        "import pickle, sys\n"
        "from groupgeom.words import standard_presentation\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "print(hash(p) == hash(standard_presentation('surface', 2)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps(SURF2),
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=30,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [b"True"]


@pytest.mark.parametrize(
    "word, bad", [((1, 0, 5), 0), ((1, 2, 3, -2), 3), ((-3, 0), -3), ((2, -1, -5, 9), -5)]
)
def test_check_word_names_the_first_bad_letter(word, bad):
    with pytest.raises(ValueError, match=f"^letter {bad} outside alphabet of rank 2$"):
        ZZ.check_word(word)
    ZZ.check_word((1, -1, 2, -2))
    ZZ.check_word(EMPTY)


def _first_bad_letter_message(word, rank):
    """The message of the per-letter check that ``check_word`` replaced."""
    for x in word:
        if x == 0 or abs(x) > rank:
            return f"letter {x} outside alphabet of rank {rank}"
    return None


@pytest.mark.parametrize("pres", [ZZ, SURF2], ids=["rank 2", "rank 4"])
@given(data=st.data())
def test_check_word_matches_the_per_letter_scan(pres, data):
    rank = pres.rank
    good = st.sampled_from(pres.letters())
    bad = st.sampled_from([0, rank + 1, -(rank + 1)])
    word = tuple(data.draw(st.lists(st.one_of(good, good, bad), max_size=12)))
    expected = _first_bad_letter_message(word, rank)
    if expected is None:
        pres.check_word(word)
    else:
        with pytest.raises(ValueError) as err:
            pres.check_word(word)
        assert str(err.value) == expected


def test_word_text_roundtrip():
    for text in ("aaabb", "abAB", "1", "aBAb"):
        assert format_word(parse_word(text, ZZ), ZZ) == text


def test_parse_word_error_position():
    with pytest.raises(ParseError) as err:
        parse_word("abx", ZZ)
    assert err.value.column == 3


def test_presentation_text_format_exact():
    assert format_presentation(Presentation(("a", "b"), ((1, 2, -1, -2),))) == (
        "gens: a b\nrels: abAB\n"
    )
    assert format_presentation(ZZ) == "gens: a b\nrels: abAB\nfamily: zz\n"


def test_presentation_parse_roundtrip():
    for pres in (ZZ, F2, SURF2, Presentation(("a", "c"), ((1, 1, 2),))):
        again = parse_presentation(format_presentation(pres))
        assert again == pres


def test_parse_presentation_untagged_is_generic():
    pres = parse_presentation("gens: a b\nrels: abAB\n")
    assert pres.family is None
    assert pres.relators == ZZ.relators


def test_parse_presentation_family_tag_verified():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: a b\nrels: abab\nfamily: zz\n")
    assert err.value.line == 3


def test_parse_presentation_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: a b\nrels: axb\n")
    assert (err.value.line, err.value.column) == (2, 2)
    with pytest.raises(ParseError):
        parse_presentation("rels: ab\n")


def test_parse_presentation_skips_comments_and_blank_lines():
    text = "# untagged Z^2\n\ngens: a b\n   \n  # the commutator\nrels: abAB\n"
    assert parse_presentation(text) == parse_presentation("gens: a b\nrels: abAB\n")


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("# c\n\ngens: a b\n\nrels: axb\n", 5, 2, "invalid word character 'x'"),
        ("gens: a b\nabAB\n", 2, 1, "expected 'gens:', 'rels:' or 'family:'"),
        ("gens: a b\ngens: a\n", 2, 1, "duplicate gens line"),
        ("gens:   \n", 1, 6, "empty generator list"),
        ("gens: a B\n", 1, 1, "generator 'B' is not a lowercase letter"),
        ("gens: a b\nrels: abAB\nfamily: zz\nfamily: zz\n", 4, 1, "duplicate family line"),
        ("gens: a b c d\nrels: abABcdCD\nfamily: surface two\n", 3, 1, "bad family declaration"),
        ("gens: a b\nrel: abAB\n", 2, 1, "unknown directive 'rel'"),
        ("gens: a b\nrels: abAB\nfamily: surface 1\n", 3, 1, "surface family needs genus >= 2"),
        ("rels: ab\n", 1, 1, "missing gens line"),
    ],
    ids=[
        "after-comments", "no-colon", "duplicate-gens", "empty-gens", "bad-name",
        "duplicate-family", "non-integer-genus", "unknown-directive", "genus-1", "no-gens",
    ],
)
def test_parse_presentation_errors_name_line_and_column(text, line, column, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"{line}:{column}: ")


@pytest.mark.parametrize(
    "generators, relators, message",
    [
        ((), (), "at least one generator"),
        (("a", "b", "a"), (), "duplicate generator names"),
        (("a", "b"), ((1, 3),), "relator letter 3 outside alphabet of size 2"),
        (("a", "b"), ((0, 1),), "relator letter 0 outside alphabet of size 2"),
    ],
    ids=["no-generators", "duplicate-names", "letter-past-rank", "letter-zero"],
)
def test_presentation_rejects_bad_fields(generators, relators, message):
    with pytest.raises(ValueError, match=message):
        Presentation(generators, relators)


@pytest.mark.parametrize("family, param", [("free", 27), ("surface", 14)])
def test_standard_presentation_needs_at_most_26_letters(family, param):
    with pytest.raises(ValueError, match="at most 26 generators"):
        standard_presentation(family, param)
    assert standard_presentation(family, param - 1).rank == 26


def test_shortlex_order():
    words = [w(t) for t in ("ba", "1", "ab", "a", "aA"[:1])]
    ordered = sorted(set(words), key=shortlex_key)
    assert [format_word(x, ZZ) for x in ordered] == ["1", "a", "ab", "ba"]


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=16))
def test_conjugacy_rep_is_the_least_rotation(word):
    # Only rotations starting with the least letter are tried; the full
    # minimum over every rotation of w and w^-1 is the reference.
    c = cyclic_reduce(word)
    assert conjugacy_rep(word) == min((*rotations(c), *rotations(invert(c))))


@given(words_f2, words_f2, st.integers(0, 30))
def test_conjugacy_rep_is_a_class_invariant(word, conjugator, k):
    rep = conjugacy_rep(word)
    c = cyclic_reduce(word)
    assert rep in set(rotations(c)) | set(rotations(invert(c)))
    if c:
        k %= len(c)
        assert conjugacy_rep(c[k:] + c[:k]) == rep
    assert conjugacy_rep(invert(word)) == rep
    assert conjugacy_rep(conjugator + word + invert(conjugator)) == rep
    assert conjugacy_rep(rep) == rep
    assert (rep == EMPTY) == (free_reduce(word) == EMPTY)


# ---------------------------------------------------------------------------
# the one rule for count, length and radius arguments (words.check_count),
# at every entry point that takes one: a call on the count, the argument's
# name in the error, its least value, and a value it accepts.  build_ball's
# radius, delta_estimate's sample count and the survey's samples_per_side
# run these inputs in their own parametrized tests.

def _bench_rows(n):
    return [(r.n, r.steps, r.trials) for r in run_bench(ZZ, "dehn", [n], WordSource("worst"))]


COUNT_ENTRY_POINTS = {
    "dehn_function": (lambda n: dehn_function(ZZ, n), "word length", 0, 4),
    "default_caps": (lambda n: default_caps(ZZ, n), "word length", 0, 4),
    "AreaCaps.max_area": (lambda n: AreaCaps(n, 16), "max_area", 0, 8),
    "AreaCaps.max_intermediate_length": (lambda n: AreaCaps(8, n), "max_intermediate_length", 0, 16),
    "exhaustive_identity_words": (lambda n: exhaustive_identity_words(ZZ, n), "word length", 0, 4),
    "generate_null_homotopic.max_insertions": (
        lambda n: generate_null_homotopic(ZZ, n, 6), "max_insertions", 0, 2
    ),
    "generate_null_homotopic.max_length": (
        lambda n: generate_null_homotopic(ZZ, 2, n), "max_length", 0, 6
    ),
    "verify_dehn_presentation.max_insertions": (
        lambda n: verify_dehn_presentation(SURF2, n, 8), "max_insertions", 1, 1
    ),
    "verify_dehn_presentation.max_length": (
        lambda n: verify_dehn_presentation(SURF2, 1, n), "max_length", 0, 8
    ),
    "verify_dehn_presentation.max_length on zz": (
        lambda n: verify_dehn_presentation(ZZ, 1, n), "max_length", 0, 8
    ),
    "compare_metrics": (lambda n: compare_metrics(ZZ, None, [(1,), (2,)], n), "radius", 0, 2),
    "verify_thinness_bound": (
        lambda n: verify_thinness_bound(n, 1, samples_per_side=8), "triangle count", 1, 2
    ),
    "random_triangles": (lambda n: list(random_triangles(n, 1, 25.0)), "triangle count", 0, 2),
    "run_bench": (_bench_rows, r"sizes\[0\]", 0, 4),
    "WordSource.insertions": (lambda n: WordSource("worst", insertions=n), "insertions", 0, 3),
}


@pytest.mark.parametrize("bad", [2.5, "3", True], ids=["fractional", "text", "bool"])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_arguments_refuse_non_integers(entry, bad):
    call, name, _, _ = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"{name}.* must be an integer, got {re.escape(repr(bad))}"):
        call(bad)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_arguments_refuse_one_below_their_least(entry):
    call, name, least, _ = COUNT_ENTRY_POINTS[entry]
    bound = f"at least {least}" if least else "nonnegative"
    with pytest.raises(ValueError, match=rf"{name}.* must be {bound}, got {least - 1}"):
        call(least - 1)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_arguments_take_numpy_integers(entry):
    call, _, _, good = COUNT_ENTRY_POINTS[entry]
    assert call(np.int64(good)) == call(good)


def test_check_count_returns_a_python_int():
    for value in (np.int64(3), np.uint8(3), np.int32(3), 3):
        assert type(check_count(value, "n")) is int and check_count(value, "n") == 3
    assert check_count(0, "n") == 0 and check_count(2, "n", 2) == 2
    for bad in (np.float64(3.0), np.bool_(True), None, 3 + 0j):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            check_count(bad, "n")


# ---------------------------------------------------------------------------
# the one letter rule (membership in the presentation's alphabet set), at
# every entry point that takes a word: its presentation, a call on the
# word, and the message that names the first bad letter.

UNTAGGED_ZZ = Presentation(("a", "b"), ((1, 2, -1, -2),))
_LETTER = "letter {} outside alphabet of rank {}"

WORD_ENTRY_POINTS = {
    "words_equal": (SURF2, lambda w: words_equal(SURF2, w, ()), _LETTER),
    "words_equal untagged": (UNTAGGED_ZZ, lambda w: words_equal(UNTAGGED_ZZ, w, w), _LETTER),
    "dehn_reduce": (SURF2, lambda w: dehn_reduce(SURF2, w), _LETTER),
    "area": (SURF2, lambda w: area(SURF2, w), _LETTER),
    "check_word": (SURF2, lambda w: SURF2.check_word((1, *w)), _LETTER),
    "Presentation relator": (
        ZZ, lambda w: Presentation(("a", "b"), (w,)), "relator letter {} outside alphabet of size {}"
    ),
    "canonical_form": (SURF2, lambda w: canonical_form(SURF2, w), _LETTER),
    "compare_metrics": (ZZ, lambda w: compare_metrics(ZZ, None, [w, (2,)], 2), _LETTER),
    "distances_from": (ZZ, lambda w: build_ball(ZZ, 2).distances_from(w), _LETTER),
    "vertex_of": (ZZ, lambda w: build_ball(ZZ, 2).vertex_of(w), _LETTER),
    "unclipped": (ZZ, lambda w: build_ball(ZZ, 2).unclipped(0, w), _LETTER),
    "all_geodesics": (ZZ, lambda w: all_geodesics(build_ball(ZZ, 2), w, 0), _LETTER),
    "triangle_thinness": (ZZ, lambda w: triangle_thinness(build_ball(ZZ, 2), 0, (1,), w), _LETTER),
}

BAD_WORDS = {
    "fractional": lambda rank: (1.5,),
    "zero": lambda rank: (0,),
    "past the rank": lambda rank: (rank + 1,),
    "cancelling": lambda rank: (1.5, -1.5),
}


@pytest.mark.parametrize("bad", BAD_WORDS)
@pytest.mark.parametrize("entry", WORD_ENTRY_POINTS)
def test_word_arguments_name_their_first_bad_letter(entry, bad):
    pres, call, message = WORD_ENTRY_POINTS[entry]
    word = BAD_WORDS[bad](pres.rank)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(word[0], pres.rank))}$"):
        call(word)


def test_values_equal_to_a_letter_pass():
    # Set membership is the rule: a value that hashes and compares equal
    # to a letter is that letter.
    SURF2.check_word((np.int64(1), 1.0, True, -4))
    assert dehn_reduce(SURF2, (np.int64(1), -1.0))[0] == EMPTY
