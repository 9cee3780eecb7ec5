"""Operation-count benchmarking of the word-problem solvers.

Step counts are the asserted, machine-independent metric; wall time is
recorded for context only.  For the greedy rewriting solver a step is a
relator replacement or a cancelled pair, both of which strictly shorten
the word, so the count never exceeds the input length.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .dehn import dehn_reduce, zz_normal_form
from .oracle import generate_null_homotopic
from .words import Presentation, Word, check_count

SOLVERS = ("dehn", "zz-nf")
SOURCES = ("worst", "random", "trivial")
TRIALS = 5  # random words per size
MAX_WORDS_PER_SIZE = 200  # trivial words per size


@dataclass(frozen=True)
class WordSource:
    kind: str  # worst | random | trivial
    seed: Optional[int] = None
    insertions: int = 3

    def __post_init__(self):
        if self.kind not in SOURCES:
            raise ValueError(f"unknown word source {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random word source needs an explicit seed")
        check_count(self.insertions, "insertions")


@dataclass(frozen=True)
class BenchRow:
    n: int
    steps: int
    wall_nanos: int
    trials: int


def _worst_case_word(n: int) -> Word:
    # b^m a^(n-m): every b precedes every a, the quadratic normal-form case.
    m = n // 2
    return (2,) * m + (1,) * (n - m)


def _random_reduced_word(rng: random.Random, presentation: Presentation, n: int) -> Word:
    letters = presentation.letters()
    out: list[int] = []
    while len(out) < n:
        x = rng.choice(letters)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def _trivial_pool(presentation: Presentation, insertions: int, max_length: int):
    pool = generate_null_homotopic(presentation, insertions, max_length)
    by_length: dict[int, list[Word]] = {}
    for w in pool:
        if w:
            by_length.setdefault(len(w), []).append(w)
    return by_length


def run_bench(
    presentation: Presentation,
    solver: str,
    sizes: Sequence[int],
    source: WordSource,
) -> tuple[BenchRow, ...]:
    """Worst-case step counts per input size, deterministic across runs."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "zz-nf" and presentation.rank > 2:
        raise ValueError("the normal-form solver only applies to two-generator words")
    if source.kind == "worst" and presentation.rank < 2:
        raise ValueError("the worst-case family needs two generators")
    if not sizes:
        raise ValueError(f"sizes must be nonempty and nonnegative, got {list(sizes)}")
    sizes = [check_count(n, f"sizes[{i}]") for i, n in enumerate(sizes)]

    trivial = None
    if source.kind == "trivial":
        trivial = _trivial_pool(presentation, source.insertions, max(sizes))

    rows = []
    for n in sorted(set(sizes)):
        if source.kind == "worst":
            words = [_worst_case_word(n)]
        elif source.kind == "random":
            rng = random.Random(f"{source.seed}:{n}")
            words = [_random_reduced_word(rng, presentation, n) for _ in range(TRIALS)]
        else:
            words = trivial.get(n, [])[:MAX_WORDS_PER_SIZE]
        if not words:
            continue
        worst = 0
        wall = 0
        for w in words:
            start = time.perf_counter_ns()
            if solver == "dehn":
                _, trace = dehn_reduce(presentation, w)
                steps = trace.step_count + trace.free_cancellations
            else:
                _, _, steps = zz_normal_form(w)
            wall += time.perf_counter_ns() - start
            worst = max(worst, steps)
        rows.append(BenchRow(n, worst, wall, len(words)))
    return tuple(rows)
