from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupgeom.dehn import dehn_reduce, zz_normal_form
from groupgeom.isoperimetry import AreaCaps, area
from groupgeom.oracle import (
    Tristate,
    UndecidedError,
    abelian_residue,
    canonical_form,
    exhaustive_identity_words,
    generate_null_homotopic,
    normal_form,
    words_equal,
)
from groupgeom.words import (
    EMPTY,
    Presentation,
    format_word,
    free_reduce,
    invert,
    multiply,
    parse_word,
    shortlex_key,
    standard_presentation,
    symmetrize,
)

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)
GENERIC_ZZ = Presentation(("a", "b"), ((1, 2, -1, -2),))  # same relator, untagged
S3 = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))  # untagged, finite


def w(text, pres=ZZ):
    return parse_word(text, pres)


def test_equal_zz_classic_pair():
    assert words_equal(ZZ, w("aaabb"), w("ababa")) is Tristate.EQUAL


def test_not_equal_free():
    assert words_equal(F2, (1,), (2,)) is Tristate.NOT_EQUAL


def test_generic_zero_budget_is_unknown():
    ans = words_equal(GENERIC_ZZ, w("aabbAABB"), EMPTY, AreaCaps(0, 16))
    assert ans is Tristate.UNKNOWN


def test_generic_with_budget_certifies():
    budget = AreaCaps(8, 24)
    assert words_equal(GENERIC_ZZ, w("aabbAABB"), EMPTY, budget) is Tristate.EQUAL
    assert words_equal(GENERIC_ZZ, w("ab"), w("ba"), budget) is Tristate.EQUAL
    assert words_equal(GENERIC_ZZ, w("a"), w("b"), budget) is Tristate.NOT_EQUAL


def test_surface_equality_via_rewriting():
    assert words_equal(SURF2, parse_word("abABc", SURF2), parse_word("dcD", SURF2)) is Tristate.EQUAL
    assert words_equal(SURF2, parse_word("ab", SURF2), parse_word("ba", SURF2)) is Tristate.NOT_EQUAL


@pytest.mark.parametrize("genus", [2, 3, 4])
@given(data=st.data())
def test_untagged_surface_answers_like_the_tagged_one(genus, data):
    tagged = standard_presentation("surface", genus)
    untagged = Presentation(tagged.generators, tagged.relators)
    words = st.lists(st.sampled_from(tagged.letters()), max_size=8).map(tuple)
    u, v = data.draw(words), data.draw(words)
    # Splicing in a relator member gives a pair that is equal.
    member = data.draw(st.sampled_from(symmetrize(tagged).members))
    cut = data.draw(st.integers(0, len(u)))
    for x, y in ((u, v), (u, u[:cut] + member + u[cut:])):
        answer = words_equal(untagged, x, y)
        assert answer is not Tristate.UNKNOWN
        assert answer is words_equal(tagged, x, y)


def test_untagged_free_group_uses_the_free_normal_form():
    untagged = Presentation(("a", "b"))
    assert normal_form(untagged, w("abBA", F2)) == EMPTY
    assert words_equal(untagged, w("ab", F2), w("ba", F2)) is Tristate.NOT_EQUAL


def test_alphabet_mismatch_raises():
    with pytest.raises(ValueError):
        words_equal(ZZ, (3,), (1,))


def test_residue_with_nonzero_exponent_relators():
    # <a, b | a^3, b^2 a^2>: exponent lattice spanned by (3,0) and (2,2)
    pres = Presentation(("a", "b"), ((1, 1, 1), (2, 2, 1, 1)))
    assert abelian_residue(pres, (1, 1, 1)) == (0, 0)
    assert any(abelian_residue(pres, (1,)))
    # (1,0)+(2,2) = (3,2) ... lattice contains (3,0),(2,2) hence (1,-2),(0,6)
    assert abelian_residue(pres, (1, -2, 2, -2, 2, -2)) != ()  # well-formed call


def test_canonical_forms():
    assert canonical_form(ZZ, w("ababa")) == w("aaabb")
    assert canonical_form(ZZ, w("BAab")) == EMPTY
    assert canonical_form(F2, parse_word("abB", F2)) == (1,)
    surf_word = parse_word("abABc", SURF2)
    canon = canonical_form(SURF2, surf_word, max_radius=6)
    assert canon == parse_word("dcD", SURF2)
    assert words_equal(SURF2, canon, surf_word) is Tristate.EQUAL


def test_canonical_form_idempotent_zz():
    for text in ("ababa", "BAab", "bbaa", "aBaB"):
        once = canonical_form(ZZ, w(text))
        assert canonical_form(ZZ, once) == once
        assert words_equal(ZZ, once, w(text)) is Tristate.EQUAL


def test_canonical_form_budget_guard():
    with pytest.raises(UndecidedError):
        canonical_form(SURF2, parse_word("ababab", SURF2), max_radius=2)


def test_canonical_form_reuses_the_largest_ball():
    import random

    from groupgeom import cayley
    from groupgeom.dehn import dehn_reduce

    rng = random.Random(11)
    letters = SURF2.letters()
    relator = SURF2.relators[0]

    def short_word(limit):
        return free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(0, limit))))

    words = []
    while len(words) < 200:
        cut = rng.randrange(len(relator))
        loop = relator[cut:] + relator[:cut]
        word = multiply(short_word(3), loop if rng.random() < 0.5 else invert(loop), short_word(2))
        if len(dehn_reduce(SURF2, word)[0]) <= 3:
            words.append(word)
    fresh = {r: cayley.build_ball(SURF2, r) for r in range(4)}

    def fresh_answer(word):
        reduced = dehn_reduce(SURF2, word)[0]
        ball = fresh[len(reduced)]
        return ball.vertices[ball.vertex_of(reduced)]

    for word in words:
        assert canonical_form(SURF2, word) == fresh_answer(word)


def test_normal_form_on_every_reduced_word_up_to_six():
    letters = (1, -1, 2, -2)
    for n in range(7):
        for word in product(letters, repeat=n):
            if any(word[k] == -word[k + 1] for k in range(n - 1)):
                continue
            i = word.count(1) - word.count(-1)
            j = word.count(2) - word.count(-2)
            power = ("a" if i > 0 else "A") * abs(i) + ("b" if j > 0 else "B") * abs(j)
            assert normal_form(F2, word) == free_reduce(word)
            assert normal_form(ZZ, word) == w(power)
            assert normal_form(SURF2, word) is None
            assert normal_form(GENERIC_ZZ, word) is None


def test_generate_zz_one_insertion():
    out = generate_null_homotopic(ZZ, 1, 4)
    texts = {format_word(x, ZZ) for x in out}
    assert "1" in texts
    assert {"abAB", "bABa", "ABab", "BabA", "baBA", "aBAb", "BAba", "AbaB"} <= texts
    assert len(out) == 9


def test_generate_is_shortlex_sorted_and_identity_only():
    out = generate_null_homotopic(ZZ, 2, 8)
    assert list(out) == sorted(out, key=shortlex_key)
    for word in out:
        assert zz_normal_form(word)[:2] == (0, 0)


def test_generate_square_needs_four_insertions():
    square = w("aabbAABB")
    assert square not in generate_null_homotopic(ZZ, 2, 8)
    assert square in generate_null_homotopic(ZZ, 4, 8)


def test_generate_free_is_trivial():
    assert generate_null_homotopic(F2, 5, 20) == (EMPTY,)


def _reference_null_homotopic(presentation, max_insertions, max_length):
    """``generate_null_homotopic`` before it skipped the insertions that a
    rotated member repeats: every member at every cut of every word."""
    members = symmetrize(presentation).members
    seen = frontier = {EMPTY}
    for _ in range(max_insertions):
        grown = {
            cand
            for word in frontier
            for cut in range(len(word) + 1)
            for rho in members
            if len(cand := multiply(word[:cut], rho, word[cut:])) <= max_length
        } - seen
        seen = seen | grown
        frontier = grown
    return tuple(sorted(seen, key=shortlex_key))


@pytest.mark.parametrize(
    "pres, insertions, length",
    [
        (ZZ, 3, 12),
        (ZZ, 4, 10),
        (SURF2, 2, 16),
        (standard_presentation("surface", 3), 2, 16),
        (GENERIC_ZZ, 3, 10),
        (Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2))), 3, 9),
        (Presentation(("a", "b"), ((2, 1, -2, -1, -1),)), 2, 12),
        (Presentation(("a",), ((1, 1, 1, 1),)), 4, 9),
        (Presentation(("a", "b", "c"), ((1, 2, -1, -2), (1, 1, 3, -2, 3), (3, 3, 3))), 2, 10),
    ],
    ids=["zz-3-12", "zz-4-10", "surface2-2-16", "surface3-2-16", "generic-zz-3-10",
         "triangle-3-9", "bs12-2-12", "cyclic4-4-9", "three-gen-2-10"],
)
def test_generate_matches_the_plain_insertion_loop(pres, insertions, length):
    assert generate_null_homotopic(pres, insertions, length) == _reference_null_homotopic(
        pres, insertions, length
    )


def test_exhaustive_identity_words_families():
    assert exhaustive_identity_words(F2, 8) == (EMPTY,)
    assert exhaustive_identity_words(SURF2, 8) is None
    zz_words = exhaustive_identity_words(ZZ, 8)
    assert EMPTY in zz_words
    assert w("abAB") in zz_words
    assert all(zz_normal_form(x)[:2] == (0, 0) for x in zz_words)
    # every balanced reduced word of length <= 8 appears
    brute = {EMPTY}
    letters = (1, -1, 2, -2)
    for n in (2, 4, 6, 8):
        for combo in product(letters, repeat=n):
            word = combo
            if any(word[i] == -word[i + 1] for i in range(n - 1)):
                continue
            if zz_normal_form(word)[:2] == (0, 0):
                brute.add(word)
    assert set(zz_words) == brute
    assert len(zz_words) == len(brute) == 361


@pytest.mark.parametrize("insertions, length", [(-1, 8), (2, -1)], ids=["insertions", "length"])
def test_generate_rejects_negative_budgets(insertions, length):
    with pytest.raises(ValueError, match="budgets must be nonnegative"):
        generate_null_homotopic(ZZ, insertions, length)


def test_exhaustive_identity_words_rejects_negative_length():
    for pres in (F2, ZZ):
        with pytest.raises(ValueError, match="word length must be nonnegative"):
            exhaustive_identity_words(pres, -1)
    assert exhaustive_identity_words(SURF2, -1) is None


@pytest.mark.parametrize("pres", [F2, ZZ], ids=["free2", "zz"])
def test_exhaustive_identity_words_rejects_non_integer_length(pres):
    # Refused as the length given, not as the radius of the ball it implies.
    with pytest.raises(ValueError, match=r"word length must be an integer, got 4\.0"):
        exhaustive_identity_words(pres, 4.0)
    assert exhaustive_identity_words(pres, np.int64(4)) == exhaustive_identity_words(pres, 4)


def test_exhaustive_identity_words_free_builds_no_ball(monkeypatch):
    from groupgeom import cayley
    from groupgeom.dehn import verify_dehn_presentation

    # a free group's Cayley graph is a tree: nothing to enumerate, no ball
    def no_build(presentation, radius, budget=None):
        raise AssertionError(f"built a radius-{radius} ball")

    monkeypatch.setattr(cayley, "build_ball", no_build)
    assert exhaustive_identity_words(F2, 40) == (EMPTY,)
    assert exhaustive_identity_words(standard_presentation("free", 26), 40) == (EMPTY,)
    assert verify_dehn_presentation(F2, 1, 40).holds


def test_soundness_on_certified_closure():
    budget = AreaCaps(8, 24)
    for word in generate_null_homotopic(ZZ, 2, 8):
        for cut in range(len(word) + 1):
            u, tail = word[:cut], word[cut:]
            v = invert(tail)
            if len(u) > 6 or len(v) > 6:
                continue
            assert words_equal(GENERIC_ZZ, u, v, budget) is not Tristate.NOT_EQUAL


def test_definite_answers_never_contradict_abelianization():
    budget = AreaCaps(6, 20)
    words = [w(t) for t in ("1", "a", "ab", "ba", "abAB", "aabb", "bbaa", "aBAb")]
    for u in words:
        for v in words:
            ans = words_equal(GENERIC_ZZ, u, v, budget)
            residue_match = abelian_residue(GENERIC_ZZ, multiply(u, invert(v))) == (0, 0)
            if ans is Tristate.EQUAL:
                assert residue_match
            if not residue_match:
                assert ans is Tristate.NOT_EQUAL


def test_surface_oracle_sound_on_certified_closure():
    for word in generate_null_homotopic(SURF2, 2, 12):
        for cut in range(len(word) + 1):
            u, tail = word[:cut], word[cut:]
            v = invert(tail)
            if len(u) > 6 or len(v) > 6:
                continue
            assert words_equal(SURF2, u, v) is not Tristate.NOT_EQUAL


def _reference_words_equal(presentation, u, v, caps=None):
    """``words_equal`` as it was when it checked ``u`` and ``v`` apart and
    freely reduced ``u v^-1`` before choosing a strategy."""
    presentation.check_word(u)
    presentation.check_word(v)
    w = multiply(u, invert(v))
    if not w:
        return Tristate.EQUAL
    nf = normal_form(presentation, w)
    if nf is not None:
        return Tristate.EQUAL if nf == EMPTY else Tristate.NOT_EQUAL
    if presentation.family == "surface":
        reduced, _ = dehn_reduce(presentation, w)
        return Tristate.EQUAL if reduced == EMPTY else Tristate.NOT_EQUAL
    if any(abelian_residue(presentation, w)):
        return Tristate.NOT_EQUAL
    result = area(presentation, w, AreaCaps(8, 32) if caps is None else caps)
    return Tristate.EQUAL if result.value is not None else Tristate.UNKNOWN


def _all_words(rank, max_length, reduced=True):
    """Every word up to ``max_length``, or every freely reduced one."""
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    out = layer = [EMPTY]
    for _ in range(max_length):
        layer = [u + (x,) for u in layer for x in letters if not (reduced and u and u[-1] == -x)]
        out = out + layer
    return out


def _outcome(fn, presentation, u, v, caps):
    try:
        return fn(presentation, u, v, caps)
    except ValueError as exc:
        return f"ValueError: {exc}"


CAPS = AreaCaps(8, 24)
DIFFERENTIAL_CASES = [
    ("free2", F2, _all_words(2, 3), CAPS),
    ("zz", ZZ, _all_words(2, 3), CAPS),
    ("untagged-zz", GENERIC_ZZ, _all_words(2, 3), CAPS),
    ("untagged-zz-default-caps", GENERIC_ZZ, _all_words(2, 2), None),
    ("surface2", SURF2, _all_words(4, 2), CAPS),
    ("free2-unreduced", F2, _all_words(2, 2, reduced=False), CAPS),
    ("zz-unreduced", ZZ, _all_words(2, 2, reduced=False), CAPS),
    ("untagged-zz-unreduced", GENERIC_ZZ, _all_words(2, 2, reduced=False), CAPS),
    ("surface2-unreduced", SURF2, _all_words(4, 2, reduced=False), CAPS),
    ("untagged-zz-4", GENERIC_ZZ, _all_words(2, 4), CAPS),
    ("s3", S3, _all_words(2, 2), AreaCaps(4, 6)),
]


@pytest.mark.parametrize(
    "pres, words, caps",
    [case[1:] for case in DIFFERENTIAL_CASES],
    ids=[case[0] for case in DIFFERENTIAL_CASES],
)
def test_words_equal_matches_multiply_first_reference(pres, words, caps):
    for u in words:
        for v in words:
            assert words_equal(pres, u, v, caps) is _reference_words_equal(pres, u, v, caps), (u, v)


def test_area_fallback_searches_the_class_representative(monkeypatch):
    from groupgeom import isoperimetry

    searched = []

    def recording_area(presentation, word, caps=None):
        searched.append(word)
        return area(presentation, word, caps)

    monkeypatch.setattr(isoperimetry, "area", recording_area)
    u, v = w("aabbAB", GENERIC_ZZ), w("ab", GENERIC_ZZ)
    assert words_equal(GENERIC_ZZ, u, v) is Tristate.EQUAL
    # u v^-1 = aabbABBA, cyclically reduced to abbABB; BBAbba is the least
    # rotation of it and of its inverse.
    assert searched == [w("BBAbba", GENERIC_ZZ)]


@pytest.mark.parametrize(
    "u, v",
    [((1, 3), (2,)), ((1,), (0, 2)), ((2, -4), (5,)), ((0,), (-3,)), ((1, 2), (2, -3, 0))],
    ids=["u", "v-zero", "u-of-both", "zero-of-both", "v-first-of-two"],
)
def test_words_equal_names_the_reference_bad_letter(u, v):
    for pres in (F2, ZZ, GENERIC_ZZ):
        got = _outcome(words_equal, pres, u, v, None)
        assert got.startswith("ValueError: letter ")
        assert got == _outcome(_reference_words_equal, pres, u, v, None)
