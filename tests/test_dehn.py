import pytest
from hypothesis import given, strategies as st

from groupgeom.dehn import (
    DehnStep,
    DehnVerdict,
    dehn_reduce,
    find_majority_subword,
    verify_dehn_presentation,
    zz_normal_form,
)
from groupgeom.isoperimetry import fit_growth
from groupgeom.oracle import exhaustive_identity_words, generate_null_homotopic
from groupgeom.words import (
    EMPTY,
    Presentation,
    free_reduce,
    invert,
    multiply,
    parse_word,
    reduce_onto,
    shortlex_key,
    standard_presentation,
    symmetrize,
)

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)


def test_find_majority_surface_prefix():
    w = parse_word("abABc", SURF2)
    step = find_majority_subword(w, symmetrize(SURF2))
    assert step.position == 0
    assert step.matched_length == 5
    assert step.relator == parse_word("abABcdCD", SURF2)
    assert step.replacement == parse_word("dcD", SURF2)


def test_find_majority_absent_on_square_word():
    w = parse_word("aabbAABB", ZZ)
    assert find_majority_subword(w, symmetrize(ZZ)) is None


def test_find_majority_empty_word():
    assert find_majority_subword(EMPTY, symmetrize(ZZ)) is None


def test_find_majority_leftmost_and_longest():
    # two candidate matches; position 1 comes first
    w = parse_word("aabA", ZZ)
    step = find_majority_subword(w, symmetrize(ZZ))
    assert step.position == 1
    assert step.matched_length == 3


def test_dehn_reduce_relator_itself():
    out, trace = dehn_reduce(SURF2, parse_word("abABcdCD", SURF2))
    assert out == EMPTY
    assert trace.step_count == 1


def test_dehn_reduce_majority_split():
    out, trace = dehn_reduce(SURF2, parse_word("abABc", SURF2))
    assert out == parse_word("dcD", SURF2)
    assert trace.step_count == 1


def test_dehn_reduce_stuck_on_square():
    word = parse_word("aabbAABB", ZZ)
    out, trace = dehn_reduce(ZZ, word)
    assert out == word
    assert trace.step_count == 0


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20).map(tuple))
def test_dehn_reduce_on_free_presentation_is_free_reduction(word):
    out, trace = dehn_reduce(F2, word)
    assert out == free_reduce(word)
    assert trace.step_count == 0


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=18).map(tuple))
def test_dehn_reduce_shortens_and_is_deterministic(word):
    out1, trace1 = dehn_reduce(SURF2, word)
    out2, trace2 = dehn_reduce(SURF2, word)
    assert (out1, trace1) == (out2, trace2)
    assert len(out1) <= len(word)
    assert trace1.step_count <= len(word)
    assert find_majority_subword(out1, symmetrize(SURF2)) is None


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16).map(tuple))
def test_dehn_reduce_preserves_zz_element(word):
    out, _ = dehn_reduce(ZZ, word)
    assert zz_normal_form(out)[:2] == zz_normal_form(word)[:2]


def test_zz_normal_form_examples():
    assert zz_normal_form(parse_word("aaabb", ZZ)) == (3, 2, 0)
    assert zz_normal_form(parse_word("ababa", ZZ)) == (3, 2, 3)
    assert zz_normal_form(parse_word("bbaa", ZZ)) == (2, 2, 4)
    assert zz_normal_form(EMPTY) == (0, 0, 0)


def test_zz_normal_form_rejects_foreign_letters():
    with pytest.raises(ValueError):
        zz_normal_form((1, 3))


def _inversions(word):
    # brute-force (b-type, a-type) ordered pair count
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if abs(word[i]) == 2 and abs(word[j]) == 1
    )


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30).map(tuple))
def test_zz_swaps_match_bruteforce_inversions(word):
    assert zz_normal_form(word)[2] == _inversions(word)


def test_verify_surface_genus2():
    verdict = verify_dehn_presentation(SURF2, 2, 12)
    assert verdict.holds
    assert verdict.words_checked > 0


def test_verify_zz_fails_with_square_witness():
    verdict = verify_dehn_presentation(ZZ, 2, 8)
    assert not verdict.holds
    assert verdict.counterexample == parse_word("aabbAABB", ZZ)
    out, _ = dehn_reduce(ZZ, verdict.counterexample)
    assert out != EMPTY


def test_verify_free_checks_nothing():
    verdict = verify_dehn_presentation(F2, 1, 8)
    assert verdict.holds
    assert verdict.words_checked == 0


def test_verify_rejects_zero_insertions():
    with pytest.raises(ValueError):
        verify_dehn_presentation(ZZ, 0, 8)


def _union_reference(presentation, max_insertions, max_length):
    """The union-and-sort loop verify_dehn_presentation ran over both
    identity-word sources before it checked one of them."""
    candidates = set(generate_null_homotopic(presentation, max_insertions, max_length))
    extra = exhaustive_identity_words(presentation, max_length)
    if extra is not None:
        candidates.update(extra)
    checked = 0
    for w in sorted(candidates, key=shortlex_key):
        if not w:
            continue
        checked += 1
        reduced, _ = dehn_reduce(presentation, w)
        if reduced != EMPTY:
            return DehnVerdict(False, w, checked)
    return DehnVerdict(True, None, checked)


@pytest.mark.parametrize(
    "name, max_insertions, max_length",
    [
        ("zz", 1, 4),
        ("zz", 2, 8),
        ("zz", 3, 10),
        ("zz", 4, 12),
        ("free", 1, 8),
        ("free", 3, 12),
        ("surface", 2, 12),
        ("untagged zz", 2, 8),
        ("torsion", 2, 8),
    ],
)
def test_verify_matches_union_reference(name, max_insertions, max_length):
    pres = F2 if name == "free" else PRESENTATIONS[name]
    assert verify_dehn_presentation(pres, max_insertions, max_length) == _union_reference(
        pres, max_insertions, max_length
    )


@pytest.mark.parametrize("pres", [ZZ, F2], ids=["zz", "free"])
def test_insertion_products_lie_in_the_exhaustive_set(pres):
    # verify_dehn_presentation checks only the exhaustive set where it exists.
    for n in range(11):
        exhaustive = set(exhaustive_identity_words(pres, n))
        for k in range(4):
            assert set(generate_null_homotopic(pres, k, n)) <= exhaustive


def test_dehn_reduce_element_confirmed_by_generic_oracle():
    from groupgeom.isoperimetry import AreaCaps
    from groupgeom.oracle import Tristate, words_equal

    generic = Presentation(("a", "b"), ((1, 2, -1, -2),))
    budget = AreaCaps(10, 30)
    for text in ("abABab", "aabbAABB", "babA", "aabABAbA", "bbaaBBAA"):
        word = parse_word(text, ZZ)
        out, _ = dehn_reduce(ZZ, word)
        assert words_equal(generic, word, out, budget) is Tristate.EQUAL


PRESENTATIONS = {
    "zz": ZZ,
    "surface": SURF2,
    "untagged zz": Presentation(("a", "b"), ((1, 2, -1, -2),)),
    "three relators": Presentation(("a", "b", "c"), ((1, 2, -1, -2), (1, 1, 3, -2, 3), (3, 3, 3))),
    "torsion": Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2))),
}


def _reference_majority(word, relators, start=0):
    # The member-by-member prefix loop the relator trie replaced.
    n = len(word)
    for i in range(start, n):
        best_len = 0
        best_rel = None
        remaining = n - i
        for rel in relators.members:
            limit = min(len(rel), remaining)
            lcp = 0
            while lcp < limit and word[i + lcp] == rel[lcp]:
                lcp += 1
            if 2 * lcp > len(rel) and lcp > best_len:
                best_len = lcp
                best_rel = rel
        if best_rel is not None:
            return DehnStep(i, best_rel, best_len, invert(best_rel[best_len:]))
    return None


def _member_pieces(pres):
    # Words glued from member prefixes and single letters, so that majority
    # matches, ties and overlaps are common.
    single = st.sampled_from(pres.letters()).map(lambda x: (x,))
    prefix = st.sampled_from(symmetrize(pres).members).flatmap(
        lambda m: st.integers(0, len(m)).map(lambda k: m[:k])
    )
    return st.lists(st.one_of(single, prefix), max_size=8).map(lambda ps: sum(ps, ()))


@given(st.sampled_from(sorted(PRESENTATIONS)), st.data())
def test_find_majority_matches_reference_at_every_start(name, data):
    pres = PRESENTATIONS[name]
    word = data.draw(_member_pieces(pres))
    relators = symmetrize(pres)
    for start in range(len(word) + 1):
        assert find_majority_subword(word, relators, start) == _reference_majority(
            word, relators, start
        )


@given(st.sampled_from(sorted(PRESENTATIONS)), st.integers(0, 2**32 - 1))
def test_scan_resume_matches_always_from_zero(name, seed):
    # The two-stack scan must behave exactly like rescanning the whole word
    # with the reference matcher after every replacement.
    import random as _random

    pres = PRESENTATIONS[name]
    rng = _random.Random(seed)
    letters = pres.letters()
    if seed % 2:
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 28)))
    else:
        word = ()
        for _ in range(rng.randrange(0, 6)):
            g = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
            word += g + rng.choice(pres.relators) + invert(g)

    relators = symmetrize(pres)
    w = free_reduce(word)
    # each cancelled pair removes two letters
    cancels = (len(word) - len(w)) // 2
    steps = []
    while True:
        step = _reference_majority(w, relators, 0)
        if step is None:
            break
        tail = w[step.position + step.matched_length :]
        spliced = multiply(w[: step.position], step.replacement, tail)
        cancels += (step.position + len(step.replacement) + len(tail) - len(spliced)) // 2
        w = spliced
        steps.append(step)

    out, trace = dehn_reduce(pres, word)
    assert out == w
    assert trace.steps == tuple(steps)
    assert trace.free_cancellations == cancels


def _surface_identity_word(rng, length):
    """A product of random conjugates of surface-2 relator forms, freely
    reduced, at least ``length`` letters long."""
    forms = symmetrize(SURF2).members
    letters = SURF2.letters()
    w = []
    while len(w) < length:
        g = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        reduce_onto(w, g + rng.choice(forms) + invert(g))
    return tuple(w)


def test_dehn_reduce_time_is_linear_on_surface_identity_words():
    import random
    import time

    rng = random.Random(4)
    rows = []
    for length in (4096, 16384, 65536):
        word = _surface_identity_word(rng, length)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out, _ = dehn_reduce(SURF2, word)
            times.append(time.perf_counter() - t0)
        assert out == EMPTY
        rows.append((len(word), min(times)))
    assert fit_growth(rows).kind == "linear", rows
    assert rows[-1][1] < 2.0, rows
