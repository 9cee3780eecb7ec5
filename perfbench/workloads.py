"""The three workloads: inputs made from the seed, one timed round, checks.

A round is a fixed list of operations, each a call into groupgeom whose
answer is checked after the round's timed part ends.  Rounds of one run
are identical, so every run attempts a whole number of the same rounds.
Program functions are looked up on their modules at call time, so that a
traced round goes through the wrappers ``tracing.instrument`` installs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import checks
from tracing import Tracer, span, traced_round

# [a1, a2] in the genus-2 letters a1 = 1, b1 = 2, a2 = 3, b2 = 4.
A1_A2_COMMUTATOR = (1, 3, -1, -3)
# Retraction a1 -> x, a2 -> y, b1, b2 -> 1 onto the free group F(x, y).
SURFACE_RETRACTION = {1: 1, 3: 2}


@dataclass(frozen=True)
class Sizes:
    stream_lengths: tuple[int, ...]
    words_per_length: int
    surface_radius: int
    filling_n: int
    sweep_length: int
    generic_radius: int
    flat_delta_radius: int
    survey_triangles: int
    side_checks: int
    distance_rows: int
    sample_triangles: int


# Each task is a call of at most about 1.5 s, so a run holds ten or more
# rounds and its medians ride out this machine's speed swings (README:
# "Not measured, and why").
FULL = Sizes(
    stream_lengths=(32, 128, 512, 2048, 4096),
    words_per_length=16,
    surface_radius=3,
    filling_n=8,
    sweep_length=4,
    generic_radius=9,
    flat_delta_radius=6,
    survey_triangles=200,
    side_checks=24,
    distance_rows=8,
    sample_triangles=4,
)

# The benchmark's own tests.
SMALL = Sizes(
    stream_lengths=(16, 64),
    words_per_length=4,
    surface_radius=2,
    filling_n=6,
    sweep_length=2,
    generic_radius=3,
    flat_delta_radius=3,
    survey_triangles=4,
    side_checks=4,
    distance_rows=3,
    sample_triangles=2,
)


class Round:
    """Timings, answers and failures of one round."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.decisions = 0
        self.triangles = 0
        self.wall = 0.0
        self.traced = False

    @property
    def solve(self) -> float:
        return sum(self.times.values())

    def check(self, label: str, problem) -> None:
        """Count one checked operation; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.messages.append(f"{label}: {problem}")

    def call(self, task: str, tracer, fn, *args):
        """Time one program call; an exception comes back as the result."""
        with span(tracer, "task." + task):
            t0 = perf_counter()
            out = attempt(fn, *args)
            self.times[task] = perf_counter() - t0
        return out

    def decide(self, task: str, tracer, fn, presentation, pairs):
        """Time a stream of equality decisions; answers are Tristate names."""
        with span(tracer, "task." + task):
            t0 = perf_counter()
            answers = [attempt(fn, presentation, u, v) for u, v in pairs]
            self.times[task] = perf_counter() - t0
        self.decisions += len(pairs)
        return [a if isinstance(a, Exception) else a.name for a in answers]


def attempt(fn, *args):
    """``fn(*args)``, or the exception it raised: every failure is counted
    by the check of its operation, and the round goes on."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _failure(out):
    return f"raised {out!r}" if isinstance(out, Exception) else None


def random_reduced(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    word: list[int] = []
    while len(word) < length:
        x = rng.choice((1, -1)) * rng.randint(1, rank)
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def identity_word(rng, forms, rank: int, target: int) -> tuple[int, ...]:
    """A product of random conjugates of relator forms, at least ``target``
    letters long after free reduction; the identity by construction."""
    w: list[int] = []
    while len(w) < target:
        g = random_reduced(rng, rank, rng.randint(0, 6))
        for x in g + rng.choice(forms) + checks.inverse(g):
            if w and w[-1] == -x:
                w.pop()
            else:
                w.append(x)
    return tuple(w)


def surface_stream(rng, relator, lengths, per_length):
    """(u, v, truth) triples whose quotient u v^-1 is an identity word, or an
    identity word times a conjugate of a nonzero power of [a1, a2]."""
    forms = checks.cyclic_forms(relator)
    out = []
    for target in lengths:
        for k in range(per_length):
            w = identity_word(rng, forms, 4, target)
            truth = "EQUAL"
            if k % 2:
                e = rng.choice((1, 2, 3))
                power = A1_A2_COMMUTATOR * e
                if rng.random() < 0.5:
                    power = checks.inverse(power)
                h = random_reduced(rng, 4, rng.randint(0, 8))
                w = checks.free_reduce(w + h + power + checks.inverse(h))
                truth = "NOT_EQUAL"
            # The retraction kills every relator, so it is empty on identity
            # words, and nonempty on the others, which proves them nontrivial.
            if bool(checks.retract_to_free(w, SURFACE_RETRACTION)) != (truth == "NOT_EQUAL"):
                raise AssertionError(f"stream word {w} contradicts its construction")
            cut = rng.randrange(len(w) + 1)
            out.append((w[:cut], checks.inverse(w[cut:]), truth))
    return out


def check_decisions(rnd: Round, truths, answers) -> None:
    for truth, answer in zip(truths, answers):
        rnd.check("words_equal", _failure(answer) or checks.check_decision(answer, truth))


def check_ball(rnd: Round, label: str, ball, sphere_sizes) -> bool:
    rnd.check(label, _failure(ball) or checks.check_sphere_sizes(ball, sphere_sizes))
    return not isinstance(ball, Exception)


def timed_delta(rnd: Round, tracer, gg, presentation, radius: int):
    """Build a fresh ball (timed apart) and estimate delta on it."""
    ball = rnd.call("delta_ball", tracer, gg.cayley.build_ball, presentation, radius)
    if isinstance(ball, Exception):
        return ball, None
    return ball, rnd.call("delta", tracer, gg.thinness.delta_estimate, ball)


def check_delta(rnd: Round, gg, ball, report, rng, sizes: Sizes) -> None:
    """Distance rows against breadth-first search, the witness and a seeded
    sample of triangles against enumeration of every geodesic."""
    if isinstance(report, Exception):
        rnd.check("delta_estimate", _failure(report))
        return
    rnd.triangles = report.triangles_examined
    rows = checks.RowCache(ball)
    matrix = ball.distance_matrix()
    sources = [0] + [rng.randrange(len(ball)) for _ in range(sizes.distance_rows - 1)]
    rnd.check("distance_matrix", checks.check_distance_rows(ball, matrix, sources))
    rnd.check("delta_estimate", checks.check_witness(ball, report, rows))
    for tri in checks.sample_triangles(ball, rows, rng, sizes.sample_triangles, cap=200):
        out = attempt(gg.thinness.triangle_thinness, ball, *tri)
        rnd.check(f"triangle_thinness{tri}", _failure(out) or checks.check_triangle(
            ball, tri, out[0], rows, report.delta))


class Surface:
    """Genus-2 surface group: Dehn's algorithm decides the word problem."""

    def __init__(self, gg, seed: int, sizes: Sizes):
        self.gg, self.seed, self.sizes = gg, seed, sizes
        self.presentation = gg.standard_presentation("surface", 2)
        rng = random.Random(seed)
        stream = surface_stream(
            rng, self.presentation.relators[0], sizes.stream_lengths, sizes.words_per_length
        )
        self.pairs = [(u, v) for u, v, _ in stream]
        self.truths = [truth for _, _, truth in stream]
        # Warm-up: fills the symmetrized-relator cache and first-call paths.
        gg.oracle.words_equal(self.presentation, *self.pairs[0])
        gg.cayley.build_ball(self.presentation, 1)

    def run_round(self, tracer: Tracer | None) -> Round:
        gg, sizes, rnd, pres = self.gg, self.sizes, Round(), self.presentation
        with traced_round(tracer):
            answers = rnd.decide("stream", tracer, gg.oracle.words_equal, pres, self.pairs)
            ball = rnd.call("ball", tracer, gg.cayley.build_ball, pres, sizes.surface_radius)
            report = None
            if not isinstance(ball, Exception):
                report = rnd.call("delta", tracer, gg.thinness.delta_estimate, ball)
        check_decisions(rnd, self.truths, answers)
        if check_ball(rnd, "build_ball", ball, checks.surface_sphere_sizes(sizes.surface_radius)):
            check_delta(rnd, gg, ball, report, random.Random(self.seed), sizes)
        return rnd


class Flat:
    """Z^2: greedy rewriting fails, areas grow quadratically, triangles fatten."""

    def __init__(self, gg, seed: int, sizes: Sizes):
        self.gg, self.seed, self.sizes = gg, seed, sizes
        self.zz = gg.standard_presentation("zz")
        # The same relator without the family tag takes the generic oracle.
        self.generic = gg.Presentation(("a", "b"), ((1, 2, -1, -2),))
        words = checks.reduced_words(2, sizes.sweep_length)
        pairs = [(u, v) for i, u in enumerate(words) for v in words[i:]]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.truths = [
            "EQUAL" if checks.exponent_sums(u, 2) == checks.exponent_sums(v, 2) else "NOT_EQUAL"
            for u, v in pairs
        ]
        # Warm-up: fills the relator, lattice and pairing-form caches.
        gg.isoperimetry.dehn_function(self.zz, 4)
        gg.oracle.words_equal(self.generic, (1, 2), (2, 1))
        gg.cayley.build_ball(self.generic, 2)

    def run_round(self, tracer: Tracer | None) -> Round:
        gg, sizes, rnd = self.gg, self.sizes, Round()
        with traced_round(tracer):
            table = rnd.call("filling", tracer, gg.isoperimetry.dehn_function, self.zz, sizes.filling_n)
            answers = rnd.decide("stream", tracer, gg.oracle.words_equal, self.generic, self.pairs)
            ball = rnd.call("ball", tracer, gg.cayley.build_ball, self.generic, sizes.generic_radius)
            dball, report = timed_delta(rnd, tracer, gg, self.zz, sizes.flat_delta_radius)
        rnd.check("dehn_function", _failure(table) or checks.check_dehn_rows(table, sizes.filling_n))
        check_decisions(rnd, self.truths, answers)
        # Sphere sizes 4k sum to 2r^2 + 2r + 1.
        check_ball(rnd, "build_ball", ball, checks.flat_sphere_sizes(sizes.generic_radius))
        if check_ball(rnd, "build_ball", dball, checks.flat_sphere_sizes(sizes.flat_delta_radius)):
            check_delta(rnd, gg, dball, report, random.Random(self.seed), sizes)
        return rnd


class HPlane:
    """The hyperbolic plane: the float geometry and no combinatorial layer."""

    DIAMETER = 25.0
    SAMPLES_PER_SIDE = 48

    def __init__(self, gg, seed: int, sizes: Sizes):
        self.gg, self.seed, self.sizes = gg, seed, sizes
        rng = random.Random(seed)

        def point():
            return (rng.uniform(-3.0, 3.0), 2.0 ** rng.uniform(-4.0, 4.0))

        self.sides = []
        for k in range(sizes.side_checks):
            p, a, b = point(), point(), point()
            if k % 4 == 0:
                b = (a[0], b[1])  # a vertical side
            self.sides.append((p, a, b))
        # Warm-up: first calls through the survey path.
        gg.hplane.verify_thinness_bound(2, seed, self.DIAMETER, self.SAMPLES_PER_SIDE)

    def run_round(self, tracer: Tracer | None) -> Round:
        gg, sizes, rnd = self.gg, self.sizes, Round()
        count = sizes.survey_triangles
        with traced_round(tracer):
            survey = rnd.call(
                "delta", tracer, gg.hplane.verify_thinness_bound,
                count, self.seed, self.DIAMETER, self.SAMPLES_PER_SIDE,
            )
        rnd.check("verify_thinness_bound", _failure(survey) or checks.check_survey(
            survey.max_thinness, survey.triangles, count))
        rnd.triangles = count
        HPoint = gg.hplane.HPoint
        for p, a, b in self.sides:
            value = attempt(gg.hplane.point_to_side, HPoint(*p), HPoint(*a), HPoint(*b))
            rnd.check("point_to_side", _failure(value) or checks.check_point_to_side(value, p, a, b))
        return rnd


WORKLOADS = {"surface": Surface, "flat": Flat, "hplane": HPlane}
