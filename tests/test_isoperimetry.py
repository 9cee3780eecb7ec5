import heapq
import math
import os
import subprocess
import sys
import textwrap
from collections import deque
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupgeom import isoperimetry
from groupgeom.dehn import dehn_reduce
from groupgeom.isoperimetry import (
    AreaCaps,
    AreaMove,
    AreaResult,
    DehnRow,
    area,
    default_caps,
    dehn_function,
    fit_growth,
    _closed_reduced_words,
    _moved_mass,
    _neighbors,
    _pairing_forms,
    _winding,
    _winding_states,
)
from groupgeom.oracle import (
    UndecidedError,
    abelian_residue,
    exponent_vector,
    generate_null_homotopic,
)
from groupgeom.words import (
    EMPTY,
    Presentation,
    Word,
    conjugacy_rep,
    free_reduce,
    invert,
    multiply,
    parse_word,
    reduce_onto,
    rotations,
    shortlex_key,
    standard_presentation,
    symmetrize,
)

ZZ = standard_presentation("zz")
F2 = standard_presentation("free", 2)
SURF2 = standard_presentation("surface", 2)
GENERIC_ZZ = Presentation(("a", "b"), ((1, 2, -1, -2),))  # same relator, untagged


def w(text, pres=ZZ):
    return parse_word(text, pres)


def _brute_area(pres, word, max_area, max_len):
    """Independent oracle: breadth-first search over single relator moves."""
    members = symmetrize(pres).members
    start = free_reduce(word)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = seen[cur]
        if cur == EMPTY:
            return d
        if d == max_area:
            continue
        for pos in range(len(cur) + 1):
            for rho in members:
                limit = min(len(rho), len(cur) - pos)
                lcp = 0
                while lcp < limit and cur[pos + lcp] == rho[lcp]:
                    lcp += 1
                for cut in range(lcp + 1):
                    nxt = multiply(cur[:pos], invert(rho[cut:]), cur[pos + cut :])
                    if len(nxt) <= max_len and nxt not in seen:
                        seen[nxt] = d + 1
                        queue.append(nxt)
    return None


@pytest.mark.parametrize("fields", [(-1, 16), (8, -1), (-2, -3)])
def test_area_caps_reject_negative_fields(fields):
    with pytest.raises(ValueError, match="budgets must be nonnegative"):
        AreaCaps(*fields)


def test_area_examples():
    assert area(ZZ, w("abAB")).value == 1
    assert area(ZZ, EMPTY).value == 0
    assert area(ZZ, w("aabbAABB"), AreaCaps(10, 16)).value == 4


def test_area_zero_iff_freely_trivial():
    assert area(ZZ, w("abBA")).value == 0
    assert area(ZZ, w("ab")).value is None  # not an identity word
    assert area(F2, w("abAB", F2)).value is None  # no relator fills it


def test_area_unknown_under_tight_caps():
    assert area(ZZ, w("aabbAABB"), AreaCaps(3, 16)).value is None


def test_area_matches_bruteforce_oracle():
    words = ["abAB", "aabAAB", "abbABB", "aabbAABB", "abABabAB", "baBA", "abABaBAb"]
    for text in words:
        expected = _brute_area(ZZ, w(text), 6, 14)
        got = area(ZZ, w(text), AreaCaps(6, 14)).value
        assert got == expected, text


def test_area_move_path_replays():
    result = area(ZZ, w("aabbAABB"), AreaCaps(10, 16))
    cur = free_reduce(w("aabbAABB"))
    for move in result.moves:
        assert cur[move.position : move.position + len(move.removed)] == move.removed
        cur = multiply(cur[: move.position], move.inserted, cur[move.position + len(move.removed) :])
        assert len(cur) <= result.caps.max_intermediate_length
    assert cur == EMPTY
    assert len(result.moves) == result.value


def test_area_invariant_under_rotation_and_inversion():
    caps = AreaCaps(8, 16)
    for text in ("abAB", "aabAAB", "aabbAABB"):
        base = area(ZZ, w(text), caps).value
        for rot in rotations(w(text)):
            assert area(ZZ, rot, caps).value == base
        assert area(ZZ, invert(w(text)), caps).value == base


def test_area_subadditive_on_products():
    caps = AreaCaps(10, 24)
    pool = ["abAB", "aabAAB", "aabbAABB", "bABa"]
    for s in pool:
        for t in pool:
            u, v = w(s), w(t)
            a_u = area(ZZ, u, caps).value
            a_v = area(ZZ, v, caps).value
            a_uv = area(ZZ, multiply(u, v), caps).value
            assert a_uv <= a_u + a_v


def test_area_residue_obstruction_short_circuits():
    pres = Presentation(("a", "b"), ((1, 1, 1),))  # relator a^3
    assert area(pres, (2,), AreaCaps(6, 10)).value is None
    assert area(pres, (1, 1, 1)).value == 1


def _mass(word):
    return sum(map(abs, _winding(word, 1, 2)[0].values()))


def test_winding_mass_square_words():
    assert _mass(w("abAB")) == 1
    assert _mass(w("aabbAABB")) == 4
    assert _mass(w("aaabbbAAABBB")) == 9
    # opposite winding cells: figure-eight has mass 2 though net is 0
    assert _mass(w("abABaBAb")) == 2


def test_dehn_function_zz_small():
    table = dehn_function(ZZ, 8, AreaCaps(20, 40))
    rows = {row.n: row for row in table.rows}
    assert rows[4].max_area == 1
    assert rows[6].max_area == 2
    assert rows[8].max_area == 4
    assert rows[8].argmax == w("aabbAABB")
    assert rows[2].max_area == 0
    values = [row.max_area for row in table.rows]
    assert values == sorted(values)
    examined = [row.words_examined for row in table.rows]
    assert examined == sorted(examined)


def _two_pass_dehn_function(presentation, n_max, caps=None):
    """Two-pass reference: every area first, then a second walk for the rows."""
    if caps is None:
        caps = default_caps(presentation, n_max)
    words = sorted(_closed_reduced_words(presentation, n_max), key=shortlex_key)
    areas = [(x, area(presentation, x, caps).value) for x in words]
    assert all(value is not None for _, value in areas)
    rows = []
    best_area, best_word, idx = 0, EMPTY, 0
    for n in range(2, n_max + 1, 2):
        while idx < len(areas) and len(areas[idx][0]) <= n:
            x, value = areas[idx]
            if value > best_area:
                best_area, best_word = value, x
            idx += 1
        rows.append(DehnRow(n, best_area, best_word, idx))
    return tuple(rows)


@pytest.mark.parametrize(
    "pres, n_max, caps",
    [
        (ZZ, 8, AreaCaps(20, 40)),
        (ZZ, 9, AreaCaps(20, 40)),
        (ZZ, 10, AreaCaps(20, 40)),
        (SURF2, 8, AreaCaps(8, 24)),
        (F2, 8, None),
        (ZZ, 10, None),
        (ZZ, 8, AreaCaps(16, 9)),
        (GENERIC_ZZ, 8, None),
    ],
)
def test_dehn_function_matches_two_pass_reference(pres, n_max, caps):
    table = dehn_function(pres, n_max, caps)
    expected = _two_pass_dehn_function(pres, n_max, caps)
    assert [(r.n, r.max_area, r.argmax, r.words_examined) for r in table.rows] == [
        (r.n, r.max_area, r.argmax, r.words_examined) for r in expected
    ]


@pytest.mark.parametrize("n_max, searches", [(8, 17), (10, 93)])
def test_dehn_function_searches_once_per_class(monkeypatch, n_max, searches):
    calls = []

    def counting_area(presentation, word, caps=None):
        calls.append(word)
        return area(presentation, word, caps)

    monkeypatch.setattr(isoperimetry, "area", counting_area)
    dehn_function(ZZ, n_max)
    assert len(calls) == searches
    assert len(set(calls)) == searches


@pytest.mark.parametrize(
    "caps, length", [(AreaCaps(3, 20), 8), (AreaCaps(16, 6), 8), (AreaCaps(0, 0), 4)]
)
def test_dehn_function_names_the_first_undecided_word(caps, length):
    with pytest.raises(UndecidedError, match=f"length-{length} word"):
        dehn_function(ZZ, 8, caps)


def test_dehn_function_undecided_while_building_its_ball():
    # A finite group (order 6) whose presentation has no exact equality
    # test: the ball that enumerates the identity words stops first.
    s3 = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))
    with pytest.raises(UndecidedError, match="Unknown while deduplicating elements"):
        dehn_function(s3, 8)


@pytest.mark.parametrize(
    "pres, n_max, caps", [(ZZ, -1, None), (ZZ, -5, None), (F2, -1, AreaCaps(16, 0))]
)
def test_dehn_function_rejects_negative_length(pres, n_max, caps):
    with pytest.raises(ValueError, match="word length must be nonnegative"):
        dehn_function(pres, n_max, caps)


@pytest.mark.parametrize("pres, n_max", [(ZZ, 4.5), (ZZ, 4.0), (F2, 4.0)])
def test_dehn_function_rejects_non_integer_length(pres, n_max):
    # Refused as the length given, not as the radius n_max // 2 it implies.
    with pytest.raises(ValueError, match=f"word length must be an integer, got {n_max}"):
        dehn_function(pres, n_max)
    assert dehn_function(pres, np.int64(4)) == dehn_function(pres, 4)


_BLIND_SEARCHES = textwrap.dedent(
    """
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from groupgeom.isoperimetry import AreaCaps, area
    from groupgeom.oracle import words_equal
    from groupgeom.words import Presentation, parse_word

    abc = Presentation(("a", "b", "c"), ((1, 2, -1, -2), (1, 1, 3, -2, 3), (3, 3, 3)))
    print(words_equal(abc, parse_word("Baca", abc), parse_word("C", abc), AreaCaps(6, 16)).value)
    torsion = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))
    print(area(torsion, parse_word("bAbAAA", torsion), AreaCaps(6, 14)).value)
    """
)


def test_blind_area_search_declines_within_its_state_budget():
    # Relators with nonzero exponent sums leave A* without a pairing-form
    # bound, so only the state budget keeps these two searches small.  The
    # child runs under a 1 GB address-space limit, so a regression fails
    # here instead of swapping.
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", _BLIND_SEARCHES],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["unknown", "None"]


def test_dehn_function_free_all_zero():
    table = dehn_function(F2, 8)
    assert all(row.max_area == 0 for row in table.rows)
    growth = fit_growth(table)
    assert (growth.kind, growth.exponent, growth.residual) == ("linear", 0.0, 0.0)


def test_dehn_function_surface_small():
    table = dehn_function(SURF2, 8, AreaCaps(8, 24))
    rows = {row.n: row for row in table.rows}
    assert rows[8].max_area == 1
    assert all(rows[n].max_area == 0 for n in (2, 4, 6))


def test_fit_growth_classes():
    quad = fit_growth([(n, n * n) for n in (4, 8, 12, 16)])
    assert quad.kind == "quadratic"
    assert abs(quad.exponent - 2.0) < 1e-9
    assert quad.residual < 1e-9
    lin = fit_growth([(n, 3 * n) for n in (4, 8, 12, 16)])
    assert lin.kind == "linear"
    cubic = fit_growth([(n, n**3) for n in (4, 8, 12, 16)])
    assert cubic.kind == "other"
    # A length given as an integral float is still a length.
    assert fit_growth([(float(n), n * n) for n in (4, 8, 12, 16)]).kind == "quadratic"


def test_fit_growth_needs_three_positive_rows():
    with pytest.raises(ValueError):
        fit_growth([(4, 1), (8, 2)])
    with pytest.raises(ValueError):
        fit_growth([])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(4, math.nan), (8, 2), (12, 3), (16, 4)], r"row \(4, nan\)"),
        ([(4, 1), (8, math.inf), (12, 3), (16, 4)], r"row \(8, inf\)"),
        ([(4, 1), (8, -math.inf), (12, 3), (16, 4)], r"row \(8, -inf\)"),
        ([(4, 1), (4, 2), (4, 3)], "two distinct lengths"),
        ([(4, 1), (4, 2), (4, 3), (8, 0)], "two distinct lengths"),
        ([(4.9, 16), (8.9, 64), (12.9, 144)], r"row \(4\.9, 16\.0\): needs an integer length"),
        ([(4, 16), (math.inf, 64), (12, 144)], r"row \(inf, 64\.0\): needs an integer length"),
    ],
    ids=["nan", "inf", "-inf", "one-length", "one-positive-length", "fractional-length", "infinite-length"],
)
def test_fit_growth_rejects_non_finite_values_and_one_length(rows, message):
    with pytest.raises(ValueError, match=message):
        fit_growth(rows)


def test_area_bounded_by_dehn_steps_on_surface_sample():
    caps = AreaCaps(10, 16)
    sample = [x for x in generate_null_homotopic(SURF2, 2, 16) if x][:120]
    for word in sample:
        _, trace = dehn_reduce(SURF2, word)
        assert area(SURF2, word, caps).value <= trace.step_count


# The area search before seam-only moves and the incremental winding
# bound, kept verbatim (names prefixed ``_reference``) as the reference
# for the differential tests below: every neighbour runs through
# ``reduce_onto`` and every pushed word gets its winding masses from
# scratch.


def _reference_winding_mass(word, x, y):
    rows = {}
    px = py = 0
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
    mass = 0
    for row in rows.values():
        cols = sorted(row)
        suffix = 0
        for i in range(cols[-1] - 1, cols[0] - 1, -1):
            suffix += row.get(i + 1, 0)
            mass += abs(suffix)
    return mass


def _reference_pairing_forms(presentation):
    rank = presentation.rank
    for rel in presentation.relators:
        if any(exponent_vector(rel, rank)):
            return ()
    members = symmetrize(presentation).members
    forms = []
    for x, y in combinations(range(1, rank + 1), 2):
        scale = max((_reference_winding_mass(m, x, y) for m in members), default=0)
        if scale > 0:
            forms.append((x, y, scale))
    return tuple(forms)


def _reference_heuristic(word, forms):
    if not word:
        return 0
    best = 1
    for x, y, scale in forms:
        h = -(-_reference_winding_mass(word, x, y) // scale)  # ceil div
        if h > best:
            best = h
    return best


def _reference_neighbors(word, members, max_length):
    n = len(word)
    for pos in range(n + 1):
        for rho, suffixes in members:
            limit = min(len(rho), n - pos)
            lcp = 0
            while lcp < limit and word[pos + lcp] == rho[lcp]:
                lcp += 1
            for cut in range(lcp + 1):
                repl = suffixes[cut]
                if n - cut + len(repl) > max_length + 2:  # cheap pre-filter
                    continue
                out = list(word[:pos])
                reduce_onto(out, repl + word[pos + cut :])
                if len(out) <= max_length:
                    yield pos, cut, rho, repl, tuple(out)


def _reference_area(presentation, word, caps=None):
    presentation.check_word(word)
    if caps is None:
        caps = default_caps(presentation, len(word))
    start = free_reduce(word)
    if start == EMPTY:
        return AreaResult(0, caps, ())
    relators = symmetrize(presentation)
    if not relators.members:
        return AreaResult(None, caps, None)
    if any(abelian_residue(presentation, start)):
        return AreaResult(None, caps, None)
    forms = _reference_pairing_forms(presentation)
    members = tuple(zip(relators.members, relators.inverted_suffixes))
    max_len = caps.max_intermediate_length
    if len(start) > max_len:
        return AreaResult(None, caps, None)

    h0 = _reference_heuristic(start, forms)
    if h0 > caps.max_area:
        return AreaResult(None, caps, None)
    counter = 0
    heap = [(h0, h0, len(start), counter, start)]
    best = {start: 0}
    parent: dict[Word, tuple[Word, AreaMove]] = {}
    while heap:
        f, h, _, _, w = heapq.heappop(heap)
        g = best[w]
        if f > g + h:
            continue  # stale entry
        if w == EMPTY:
            moves = []
            cur = w
            while cur != start:
                prev, move = parent[cur]
                moves.append(move)
                cur = prev
            return AreaResult(g, caps, tuple(reversed(moves)))
        if g >= caps.max_area:
            continue
        for pos, cut, rho, repl, nxt in _reference_neighbors(w, members, max_len):
            ng = g + 1
            old = best.get(nxt)
            if old is not None and old <= ng:
                continue
            nh = _reference_heuristic(nxt, forms)
            if ng + nh > caps.max_area:
                continue
            best[nxt] = ng
            if len(best) > isoperimetry._MAX_STATES:
                return AreaResult(None, caps, None)
            parent[nxt] = (w, AreaMove(pos, w[pos : pos + cut], repl, rho))
            counter += 1
            heapq.heappush(heap, (ng + nh, nh, len(nxt), counter, nxt))
    return AreaResult(None, caps, None)


def _commutator(x, y):
    return (x, y, -x, -y)


# (presentation, largest max_area drawn).  The last two have relators with
# nonzero exponent sums, so their search is blind (no pairing form) and
# grows fastest; their caps stay small.
_DIFFERENTIAL_PRESENTATIONS = {
    "untagged zz": (GENERIC_ZZ, 6),
    "three commuting": (
        Presentation(("a", "b", "c"), (_commutator(1, 2), _commutator(1, 3), _commutator(2, 3))),
        5,
    ),
    "heisenberg": (
        Presentation(
            ("a", "b"),
            (
                multiply((1,), _commutator(1, 2), (-1,), invert(_commutator(1, 2))),
                multiply((2,), _commutator(1, 2), (-2,), invert(_commutator(1, 2))),
            ),
        ),
        3,
    ),
    "surface 2": (SURF2, 3),
    "torsion": (Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2))), 3),
    "bs(1,2)": (Presentation(("a", "b"), ((2, 1, -2, -1, -1),)), 3),
}


@st.composite
def _area_inputs(draw, presentation, max_area):
    """A word (a product of relator conjugates, or any word) and caps."""
    letters = st.sampled_from(presentation.letters())
    if draw(st.booleans()):
        word = EMPTY
        for _ in range(draw(st.integers(1, 3))):
            c = tuple(draw(st.lists(letters, max_size=3)))
            rho = draw(st.sampled_from(symmetrize(presentation).members))
            word = multiply(word, c, rho, invert(c))
    else:
        word = tuple(draw(st.lists(letters, max_size=10)))
    length = len(free_reduce(word)) + draw(st.integers(-1, 10))
    return word, AreaCaps(draw(st.integers(0, max_area)), max(0, length))


@pytest.mark.parametrize("name", _DIFFERENTIAL_PRESENTATIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_area_matches_reference_search(name, data):
    presentation, max_area = _DIFFERENTIAL_PRESENTATIONS[name]
    word, caps = data.draw(_area_inputs(presentation, max_area))
    assert area(presentation, word, caps) == _reference_area(presentation, word, caps)


@pytest.mark.parametrize(
    "presentation, word, caps",
    [
        (ZZ, w("aabbAABB"), AreaCaps(3, 16)),
        (ZZ, w("aabbAABB"), AreaCaps(4, 8)),
        (ZZ, w("aabbAABB"), AreaCaps(4, 9)),
        (ZZ, w("aabbAABB"), AreaCaps(4, 10)),
        (ZZ, w("aaabbbAAABBB"), AreaCaps(9, 12)),
        (ZZ, w("aaabbbAAABBB"), AreaCaps(9, 14)),
        (GENERIC_ZZ, w("abABabAB"), AreaCaps(2, 8)),
        (SURF2, symmetrize(SURF2).members[3], AreaCaps(1, 0)),
        (SURF2, symmetrize(SURF2).members[3], AreaCaps(1, 7)),
        (SURF2, symmetrize(SURF2).members[3], AreaCaps(0, 8)),
    ],
)
def test_area_matches_reference_search_under_tight_caps(presentation, word, caps):
    assert area(presentation, word, caps) == _reference_area(presentation, word, caps)


def test_area_matches_reference_search_at_the_state_budget():
    # The two searches of test_blind_area_search_declines_within_its_state_budget:
    # both run out of states, so the move order up to the budget counts.
    abc = Presentation(("a", "b", "c"), ((1, 2, -1, -2), (1, 1, 3, -2, 3), (3, 3, 3)))
    torsion = Presentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, 1, 2)))
    cases = [
        (abc, conjugacy_rep(multiply(parse_word("Baca", abc), invert(parse_word("C", abc)))), AreaCaps(6, 16)),
        (torsion, parse_word("bAbAAA", torsion), AreaCaps(6, 14)),
    ]
    for presentation, word, caps in cases:
        result = area(presentation, word, caps)
        assert result == _reference_area(presentation, word, caps)
        assert result.value is None


_BUDGET_PRESENTATIONS = {
    "untagged zz": GENERIC_ZZ,
    "surface 2": SURF2,
    "abc": Presentation(("a", "b", "c"), ((1, 2, -1, -2), (1, 1, 3, -2, 3), (3, 3, 3))),
    "torsion": _DIFFERENTIAL_PRESENTATIONS["torsion"][0],
}


@pytest.mark.parametrize("name", _BUDGET_PRESENTATIONS)
def test_area_matches_reference_search_under_small_state_budgets(monkeypatch, name):
    # The search returns the empty word as soon as it generates it, but only
    # when the rest of that expansion cannot exhaust the state budget; at
    # these budgets a search that returned at once would give a value where
    # the reference runs out of states (abAB at budget 2 gives 1, not None).
    presentation = _BUDGET_PRESENTATIONS[name]
    words = generate_null_homotopic(presentation, 2, 10)[:60]
    caps = AreaCaps(6, 16)
    for budget in [*range(1, 61), 80, 120, 200]:
        monkeypatch.setattr(isoperimetry, "_MAX_STATES", budget)
        for word in words:
            assert area(presentation, word, caps) == _reference_area(presentation, word, caps), (budget, word)


@pytest.mark.parametrize("name", _DIFFERENTIAL_PRESENTATIONS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_incremental_winding_mass_matches_the_built_word(name, data):
    presentation, max_area = _DIFFERENTIAL_PRESENTATIONS[name]
    word, caps = data.draw(_area_inputs(presentation, max_area))
    word = free_reduce(word)
    if any(abelian_residue(presentation, word)):
        return  # the search never expands such a word
    forms = _pairing_forms(presentation)
    relators = symmetrize(presentation)
    members = tuple(zip(relators.members, relators.inverted_suffixes))
    states = _winding_states(word, forms)
    for (x, y, _, _), (_, state) in zip(forms, states):
        assert state[2] == _reference_winding_mass(word, x, y)
    reference = list(_reference_neighbors(word, members, caps.max_intermediate_length))
    words = []
    for pos, cut, k, nxt in _neighbors(word, members, caps.max_intermediate_length):
        rho, suffixes = members[k]
        # The first cut the reference yields at (pos, rho), and the same word.
        assert next(r for r in reference if r[0] == pos and r[2] == rho)[1:] == (cut, rho, suffixes[cut], nxt)
        words.append(nxt)
        for (x, y, _, _), (_, state) in zip(forms, states):
            assert _moved_mass(state, pos, k) == _reference_winding_mass(nxt, x, y)
    # Each neighbour once, in the order the reference first makes it.
    assert words == list(dict.fromkeys(r[4] for r in reference))


@pytest.mark.parametrize("name", _DIFFERENTIAL_PRESENTATIONS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kept_moves_never_cancel_at_the_left_seam(name, data):
    # u^-1 starts with -rho[-1], and the move is skipped where word[pos - 1]
    # is rho[-1], so letters of a kept move cancel only at the right seam.
    presentation, max_area = _DIFFERENTIAL_PRESENTATIONS[name]
    word, caps = data.draw(_area_inputs(presentation, max_area))
    word = free_reduce(word)
    relators = symmetrize(presentation)
    members = tuple(zip(relators.members, relators.inverted_suffixes))
    for pos, cut, k, _ in _neighbors(word, members, caps.max_intermediate_length):
        repl = members[k][1][cut]
        assert not (pos and repl and word[pos - 1] == -repl[0]), (word, pos, cut, k)


@pytest.mark.parametrize("name", _DIFFERENTIAL_PRESENTATIONS)
def test_pairing_form_scales_match_the_reference(name):
    presentation, _ = _DIFFERENTIAL_PRESENTATIONS[name]
    forms = [(x, y, scale) for x, y, scale, _ in _pairing_forms(presentation)]
    assert forms == list(_reference_pairing_forms(presentation))
