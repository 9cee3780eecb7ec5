"""Spans and counts recorded at the public functions of each groupgeom layer.

A traced round replaces, for its timed part only, each wrapped function on
the module or class where its caller looks it up, then puts the original
back.  Every call of a wrapped function becomes a span (name, start, end,
parent, size) held in flat arrays; the hottest leaf functions only count
their calls, and ``point_to_side`` also sums their time.  Self time is a span's duration less the durations of
its child spans.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import math
import statistics
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str, size: int = 0) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.size.append(size)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, size=None, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(name, size(args) if size else 0)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, original, wrapper)

    def count_calls(self, owner, attr: str, name: str, timed: bool = False) -> None:
        """Count every call of ``owner.attr`` (into ``counts[name]``) and,
        when ``timed``, add its duration to ``counts[name + "_s"]``."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        def timed_wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counts[name] += 1
                counts[name + "_s"] += perf_counter() - t0

        if timed:
            counts.setdefault(name + "_s", 0.0)
        self._replace(owner, attr, original, timed_wrapper if timed else wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        return {
            "name": name,
            "parent": parent,
            "parent_name": parent_name,
            "size": np.array(self.size, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=a["name"],
            parent=a["parent"],
            size=a["size"],
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.float64),
        )


@contextmanager
def _span(tracer: Tracer, name: str):
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


def span(tracer: Tracer | None, name: str):
    """A span around benchmark code; nothing when tracing is off."""
    return nullcontext() if tracer is None else _span(tracer, name)


@contextmanager
def traced_round(tracer: Tracer | None):
    """The timed part of a round: wrappers installed, under a root span."""
    if tracer is None:
        yield
        return
    instrument(tracer)
    try:
        with _span(tracer, "round"):
            yield
    finally:
        tracer.restore()


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers find them."""
    from groupgeom import cayley, dehn, hplane, isoperimetry, oracle, thinness, words

    tracer.count_calls(words.Presentation, "check_word", "words.check_word")
    # oracle calls dehn_reduce; dehn_reduce calls find_majority_subword.
    tracer.wrap(oracle, "dehn_reduce", "dehn.reduce", size=lambda a: len(a[1]))
    tracer.wrap(dehn, "find_majority_subword", "dehn.majority")
    # The benchmark calls oracle.words_equal; ball dedup calls cayley's copy.
    tracer.wrap(oracle, "words_equal", "oracle.equal")
    tracer.wrap(cayley, "words_equal", "oracle.equal")
    # words_equal imports area from isoperimetry at each call.
    tracer.wrap(isoperimetry, "area", "isoperimetry.area")
    tracer.wrap(
        isoperimetry, "dehn_function", "isoperimetry.dehn_function",
        on_result=lambda t: tracer.count("isoperimetry.words_examined", t.rows[-1].words_examined),
    )
    tracer.wrap(isoperimetry, "_closed_reduced_words", "isoperimetry.enumerate")
    tracer.wrap(
        cayley, "build_ball", "cayley.build_ball",
        on_result=lambda b: tracer.count("cayley.ball_vertices", len(b)),
    )
    tracer.wrap(cayley.ElementIndex, "find", "cayley.find")

    def matrix_bytes(matrix):
        key = "cayley.distance_matrix_bytes"
        tracer.counts[key] = max(tracer.counts.get(key, 0), matrix.nbytes)

    tracer.wrap(cayley.CayleyBall, "distance_matrix", "cayley.distance_matrix", on_result=matrix_bytes)
    tracer.wrap(
        thinness, "delta_estimate", "thinness.delta_estimate",
        on_result=lambda r: tracer.count("thinness.triangles_examined", r.triangles_examined),
    )
    # delta_estimate rebuilds its witness through triangle_thinness.
    tracer.wrap(thinness, "triangle_thinness", "thinness.witness")
    tracer.wrap(hplane, "h_triangle_thinness", "hplane.triangle")
    tracer.count_calls(hplane, "point_to_side", "hplane.point_to_side", timed=True)
    tracer.count_calls(hplane, "h_geodesic_point", "hplane.geodesic_point")


def time_exponent(sizes: np.ndarray, durations: np.ndarray) -> float:
    """Log-log slope of median duration against median size, over
    power-of-two size buckets from 16 letters up that hold 3 calls or more."""
    keep = sizes >= 16
    sizes, durations = sizes[keep], durations[keep]
    if len(sizes) == 0:
        return 0.0
    buckets = np.floor(np.log2(sizes)).astype(int)
    xs, ys = [], []
    for b in np.unique(buckets):
        sel = buckets == b
        if sel.sum() >= 3:
            xs.append(math.log(float(np.median(sizes[sel]))))
            ys.append(math.log(float(np.median(durations[sel]))))
    if len(xs) < 2:
        return 0.0
    return statistics.linear_regression(xs, ys)[0]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer figures, with units, from the spans and counts of
    ``rounds`` traced rounds; a layer the workload never calls reads 0."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(name, parent=None):
        m = a["name"] == ids.get(name, -2)
        if parent is not None:
            m &= a["parent_name"] == ids.get(parent, -2)
        return m

    def calls(name, parent=None):
        return int(sel(name, parent).sum()) / rounds

    def total(name, key="dur"):
        return float(a[key][sel(name)].sum()) / rounds

    def count(name):
        return tracer.counts.get(name, 0) / rounds

    reduce = sel("dehn.reduce")
    sizes, durs = a["size"][reduce], a["dur"][reduce]
    nonempty = sizes > 0
    us_per_letter = float(np.median(durs[nonempty] / sizes[nonempty]) * 1e6) if nonempty.any() else 0.0
    area = a["dur"][sel("isoperimetry.area")]
    area_ms_p50 = float(np.median(area) * 1e3) if len(area) else 0.0
    dp_s = total("thinness.delta_estimate", "self")
    examined = count("thinness.triangles_examined")
    find_calls = calls("cayley.find")
    comparisons = calls("oracle.equal", parent="cayley.find")
    words_examined = count("isoperimetry.words_examined")
    filling_areas = calls("isoperimetry.area", parent="isoperimetry.dehn_function")
    return {
        "words.check_word_calls": (count("words.check_word"), "count"),
        "dehn.reduce_calls": (calls("dehn.reduce"), "count"),
        "dehn.reduce_s": (total("dehn.reduce"), "s"),
        "dehn.us_per_letter": (us_per_letter, "us"),
        "dehn.time_exponent": (time_exponent(sizes, durs), "1"),
        "dehn.majority_calls": (calls("dehn.majority"), "count"),
        "dehn.majority_s": (total("dehn.majority"), "s"),
        "oracle.equal_calls": (calls("oracle.equal"), "count"),
        "oracle.equal_s": (total("oracle.equal"), "s"),
        "oracle.area_fallbacks": (calls("isoperimetry.area", parent="oracle.equal"), "count"),
        "cayley.ball_vertices": (count("cayley.ball_vertices"), "count"),
        "cayley.find_calls": (find_calls, "count"),
        "cayley.find_s": (total("cayley.find"), "s"),
        "cayley.comparisons_per_find": (comparisons / find_calls if find_calls else 0.0, "1"),
        "cayley.distance_matrix_s": (total("cayley.distance_matrix"), "s"),
        "cayley.distance_matrix_bytes": (tracer.counts.get("cayley.distance_matrix_bytes", 0), "B"),
        "thinness.dp_s": (dp_s, "s"),
        "thinness.triangles_examined": (examined, "count"),
        "thinness.triangles_per_s": (examined / dp_s if dp_s else 0.0, "1/s"),
        "thinness.witness_s": (total("thinness.witness"), "s"),
        "isoperimetry.area_calls": (calls("isoperimetry.area"), "count"),
        "isoperimetry.area_s": (total("isoperimetry.area"), "s"),
        "isoperimetry.area_ms_p50": (area_ms_p50, "ms"),
        "isoperimetry.words_examined": (words_examined, "count"),
        "isoperimetry.area_calls_per_word": (filling_areas / words_examined if words_examined else 0.0, "1"),
        "isoperimetry.enumerate_s": (total("isoperimetry.enumerate"), "s"),
        "hplane.triangle_calls": (calls("hplane.triangle"), "count"),
        "hplane.triangle_s": (total("hplane.triangle"), "s"),
        "hplane.point_to_side_calls": (count("hplane.point_to_side"), "count"),
        "hplane.point_to_side_s": (count("hplane.point_to_side_s"), "s"),
        "hplane.geodesic_point_calls": (count("hplane.geodesic_point"), "count"),
    }
