"""The benchmark's tracer still reaches the library layers it measures.

``perfbench/tracing.py`` replaces functions on the module or class where
their callers look them up, so a refactor that moves a lookup leaves a
layer metric reading 0 without failing any library test.  This runs one
small traced round of the calls the benchmark's layer metrics rest on.
"""

from pathlib import Path

from groupgeom import cayley, hplane, oracle
from groupgeom.oracle import Tristate
from groupgeom.words import Presentation, parse_word, standard_presentation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_round_nests_the_layer_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    surface = standard_presentation("surface", 2)
    untagged_zz = Presentation(("a", "b"), ((1, 2, -1, -2),))
    tracer = tracing.Tracer()
    with tracing.traced_round(tracer):
        wrapped = list(tracer._saved)
        u, v = parse_word("abABc", surface), parse_word("dcD", surface)
        assert oracle.words_equal(surface, u, v) is Tristate.EQUAL
        # Same residue, different words: only the A* search can answer.
        assert oracle.words_equal(untagged_zz, (1, 2), (2, 1)) is Tristate.EQUAL
        # The index still compares each new vertex of this ball with the
        # vertices in its residue bucket; no relator loop closes onto it.
        cayley.build_ball(surface, 2)

    a = tracer.arrays()
    names = tracer.names
    spans = {(names[n], names[p]) for n, p in zip(a["name"], a["parent_name"]) if p >= 0}
    assert ("dehn.reduce", "oracle.equal") in spans
    assert ("isoperimetry.area", "oracle.equal") in spans
    assert ("oracle.equal", "cayley.find") in spans

    owners = {(owner, attr) for owner, attr, _ in wrapped}
    assert {(oracle, "dehn_reduce"), (oracle, "words_equal"), (cayley, "words_equal")} <= owners
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{attr} is still wrapped"


def test_traced_survey_counts_the_scalar_recompute(monkeypatch):
    # Each triangle's winner is recomputed with one h_geodesic_point and
    # two point_to_side calls; the hplane layer metrics count those calls.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = hplane.point_to_side, hplane.h_geodesic_point
    tracer = tracing.Tracer()
    with tracing.traced_round(tracer):
        hplane.verify_thinness_bound(4, seed=1, diameter=25.0, samples_per_side=16)

    geodesic_points = tracer.counts["hplane.geodesic_point"]
    assert tracer.counts["hplane.point_to_side"] > 0
    assert tracer.counts["hplane.point_to_side"] == 2 * geodesic_points
    assert hplane.point_to_side is originals[0]
    assert hplane.h_geodesic_point is originals[1]
