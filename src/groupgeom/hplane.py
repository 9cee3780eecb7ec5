"""Upper half-plane geometry: distances, geodesics, triangle thinness.

Geodesics are vertical rays or semicircles orthogonal to the real axis.
Point-to-side distances use the closed-form foot of perpendicular (for a
side on the semicircle |z - c| = R and a point p = x + iy, writing
M = (x-c)^2 + y^2 + R^2 and K = 2R(x-c), the squared-distance function of
the angle is minimized at cos t = K/M, giving cosh d = sqrt(M^2 - K^2) /
(2yR) when the foot lands inside the segment).  Only the maximization
over points p along a side is numerical: coarse samples refined by golden
section around the best one, for every side of a batch of triangles at
once in numpy arrays (one entry per side; the coarse samples a block of
columns at a time, golden-section steps in lockstep).  The formulas for
vertical sides run only for a batch that holds one.  Points along a side
come from the tangent walk of ``h_geodesic_point`` (``point_at``), in the
arrays as in the scalar function.  The winning value is recomputed with
the scalar functions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .words import check_count

THINNESS_BOUND = math.log(1.0 + math.sqrt(2.0))

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 60  # each shrinks the bracket by _GOLDEN: 60 leave about 3e-13 of it

_CHUNK = 256  # triangles per array pass of a survey; bounds its memory
_BLOCK = 8  # coarse samples per array pass; all at once cost 10x the memory


@dataclass(frozen=True)
class HPoint:
    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError("upper half-plane points need y > 0")


@dataclass(frozen=True)
class HTriangleReport:
    vertices: tuple[HPoint, HPoint, HPoint]
    thinness: float
    maximizing_point: HPoint


@dataclass(frozen=True)
class ThinnessSurvey:
    max_thinness: float
    passed: bool
    triangles: int


def h_dist(p: HPoint, q: HPoint) -> float:
    # 2 asinh(|p - q| / (2 sqrt(y_p y_q))) equals the textbook
    # acosh(1 + |p - q|^2 / (2 y_p y_q)), which loses half its digits
    # for nearby points.
    return 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y) / (2.0 * math.sqrt(p.y * q.y)))


def _is_vertical(p: HPoint, q: HPoint) -> bool:
    scale = max(1.0, abs(p.x), abs(q.x), p.y, q.y)
    return abs(p.x - q.x) <= 1e-12 * scale


def _circle_through(p: HPoint, q: HPoint) -> tuple[float, float]:
    """Center (on the real axis) and radius of the geodesic through p, q."""
    cx = (q.x * q.x + q.y * q.y - p.x * p.x - p.y * p.y) / (2.0 * (q.x - p.x))
    r = math.hypot(p.x - cx, p.y)
    return cx, r


def h_geodesic_point(p: HPoint, q: HPoint, t: float) -> HPoint:
    """Point at arclength fraction t along the geodesic from p to q."""
    if p == q:
        raise ValueError("geodesic endpoints must differ")
    if _is_vertical(p, q):
        return HPoint(p.x, p.y * (q.y / p.y) ** t)
    # Walk t of the distance along the tangent at p: the arclength form
    # log tan(theta / 2) loses about 1e-9 on near-vertical semicircles.
    cx, _ = _circle_through(p, q)
    s = 1.0 if q.x > p.x else -1.0
    return point_at(p, math.atan2(s * p.y, s * (cx - p.x)), t * h_dist(p, q))


def point_to_side(p: HPoint, a: HPoint, b: HPoint) -> float:
    """Exact distance from p to the geodesic segment [a, b].

    Arc work happens in center-normalized coordinates u = (x - c)/R,
    v = y/R, where M - K = (u-1)^2 + v^2 and M + K = (u+1)^2 + v^2 are
    sums of squares; the naive M^2 - K^2 cancels catastrophically on the
    huge arcs that nearly-vertical sides produce.  Positions along the
    arc are compared as half-angle tangents, which stay monotone in the
    angle and keep precision at both ends of the semicircle.  The arc
    distance asinh(|h - R|(h + R) / (2Ry)), h = |p - c|, is exact near the arc.
    """
    if a == b:
        return h_dist(p, a)
    if _is_vertical(a, b):
        foot = math.hypot(p.x - a.x, p.y)
        lo, hi = min(a.y, b.y), max(a.y, b.y)
        foot = min(max(foot, lo), hi)
        return h_dist(p, HPoint(a.x, foot))
    cx, r = _circle_through(a, b)

    def half_tan(q: HPoint) -> float:
        x = (q.x - cx) / r
        y = q.y / r
        return y / (1.0 + x) if x > 0.0 else (1.0 - x) / y

    u = (p.x - cx) / r
    v = p.y / r
    m_minus_k = (u - 1.0) ** 2 + v * v
    m_plus_k = (u + 1.0) ** 2 + v * v
    foot_tan = math.sqrt(m_minus_k / m_plus_k)
    ta, tb = half_tan(a), half_tan(b)
    if min(ta, tb) <= foot_tan <= max(ta, tb):
        h = math.hypot(p.x - cx, p.y)
        return math.asinh(abs(h - r) * (h + r) / (2.0 * r * p.y))
    return min(h_dist(p, a), h_dist(p, b))


def _circle(px, py, qx, qy):
    """``_is_vertical`` and ``_circle_through`` over arrays of point pairs."""
    scale = np.max([np.ones_like(px), np.abs(px), np.abs(qx), py, qy], axis=0)
    cx = (qx * qx + qy * qy - px * px - py * py) / (2.0 * (qx - px))
    return np.abs(px - qx) <= 1e-12 * scale, cx, np.hypot(px - cx, py)


def _dist(px, py, qx, qy):
    return 2.0 * np.arcsinh(np.hypot(px - qx, py - qy) / (2.0 * np.sqrt(py * qy)))


def _geodesic(px, py, qx, qy):
    """``h_geodesic_point`` over arrays of sides: returns t -> (x, y)."""
    vertical, cx, _ = _circle(px, py, qx, qy)
    s = np.where(qx > px, 1.0, -1.0)
    half = np.arctan2(s * py, s * (cx - px)) / 2.0
    cs, sn = np.cos(half), np.sin(half)
    length = _dist(px, py, qx, qy)
    neg_sn_cs, cs_cs, ratio = -sn * cs, cs * cs, qy / py
    any_vertical = vertical.any()

    def point(t):
        # point_at(p, angle, t * length), term for term
        zy = np.exp(t * length)
        num_y, den_y = zy * cs, zy * sn
        den = cs_cs + den_y * den_y
        x = py * ((neg_sn_cs + num_y * den_y) / den) + px
        y = py * ((num_y * cs + sn * den_y) / den)
        if not any_vertical:
            return x, y
        return np.where(vertical, px, x), np.where(vertical, py * ratio**t, y)

    return point


def _to_segment(ax, ay, bx, by):
    """``point_to_side(., a, b)`` over arrays of sides: returns (x, y) -> d.
    A repeated vertex takes the vertical branch, whose foot is that vertex;
    that branch runs only for a batch that holds a vertical side."""
    vertical, cx, r = _circle(ax, ay, bx, by)
    ta, tb = (
        np.where(x > 0.0, y / (1.0 + x), (1.0 - x) / y)
        for x, y in (((ax - cx) / r, ay / r), ((bx - cx) / r, by / r))
    )
    t_lo, t_hi, two_r = np.minimum(ta, tb), np.maximum(ta, tb), 2.0 * r
    any_vertical = vertical.any()
    y_lo, y_hi = np.minimum(ay, by), np.maximum(ay, by)

    def dist(x, y):
        dx = x - cx
        u, v = dx / r, y / r
        foot_tan = np.sqrt(((u - 1.0) ** 2 + v * v) / ((u + 1.0) ** 2 + v * v))
        on_arc = (t_lo <= foot_tan) & (foot_tan <= t_hi)
        h = np.hypot(dx, y)
        arc = np.arcsinh(np.abs(h - r) * (h + r) / (two_r * y))
        ends = np.minimum(_dist(x, y, ax, ay), _dist(x, y, bx, by))
        d = np.where(on_arc, arc, ends)
        if not any_vertical:
            return d
        foot = np.clip(np.hypot(x - ax, y), y_lo, y_hi)
        return np.where(vertical, _dist(x, y, ax, foot), d)

    return dist


def _golden_max(f, a, b):
    """Golden-section maximization of f on [a, b], elementwise in lockstep."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc >= fd  # keep [a, d]; else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    return np.where(fc >= fd, c, d), np.maximum(fc, fd)


def _thinness_batch(triangles: list, samples_per_side: int) -> list[HTriangleReport]:
    """``h_triangle_thinness`` of each triangle.  Arrays hold one entry per
    side (side k runs from vertex k to k + 1); samples go _BLOCK columns at
    a time."""
    check_count(samples_per_side, "samples_per_side", 2)
    xy = np.array([[(p.x, p.y) for p in tri] for tri in triangles]).transpose(1, 0, 2)
    (ux, uy), (vx, vy), (wx, wy) = (np.roll(xy, -k, axis=0).reshape(-1, 2).T for k in range(3))
    with np.errstate(all="ignore"):
        point = _geodesic(ux, uy, vx, vy)
        to_vw, to_wu = _to_segment(vx, vy, wx, wy), _to_segment(wx, wy, ux, uy)

        def gap(t):
            x, y = point(t)
            return np.minimum(to_vw(x, y), to_wu(x, y))

        ts = np.arange(samples_per_side) / (samples_per_side - 1)
        best, i = np.full(len(ux), -np.inf), np.zeros(len(ux), dtype=int)
        for k0 in range(0, samples_per_side, _BLOCK):
            for k, val in enumerate(gap(ts[k0 : k0 + _BLOCK, None]), k0):
                best, i = np.maximum(val, best), np.where(val > best, k, i)  # first maximum
        lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, samples_per_side - 1)]
        t_ref, val_ref = _golden_max(gap, lo, hi)
    t_ref = np.where(best > val_ref, ts[i], t_ref).reshape(3, -1)
    val_ref = np.where((ux == vx) & (uy == vy), -np.inf, np.maximum(best, val_ref)).reshape(3, -1)
    reports = []
    for j, (k, tri) in enumerate(zip(np.argmax(val_ref, axis=0), triangles)):
        thinness, at = 0.0, tri[0]
        if val_ref[k, j] > 0.0:
            u, v, w = tri[k], tri[k - 2], tri[k - 1]
            p = h_geodesic_point(u, v, float(t_ref[k, j]))
            value = min(point_to_side(p, v, w), point_to_side(p, w, u))
            if value > 0.0:  # a 0-thin triangle reports (0.0, a)
                thinness, at = value, p
        reports.append(HTriangleReport(tri, thinness, at))
    return reports


def h_triangle_thinness(
    a: HPoint, b: HPoint, c: HPoint, samples_per_side: int = 64
) -> HTriangleReport:
    """Max over points p on each side of the distance to the other two sides.

    A batch of one on the survey's array path.  The reported value is an
    exact distance at ``maximizing_point``, so it never overshoots the
    true maximum and respects any upper bound the true value does.
    """
    return _thinness_batch([(a, b, c)], samples_per_side)[0]


def euclid_fat_witness(r: float) -> float:
    """Side of the euclidean equilateral triangle whose incenter sits at
    distance exactly r from all three sides (inradius s / (2*sqrt(3)))."""
    if r <= 0:
        raise ValueError("r must be positive")
    return 2.0 * math.sqrt(3.0) * r


# ---------------------------------------------------------------------------
# seeded random triangles


def point_at(base: HPoint, angle: float, distance: float) -> HPoint:
    """Exponential map: go ``distance`` from ``base`` in direction ``angle``."""
    # At i, head straight up, then rotate about i (a Mobius elliptic),
    # then carry i to base with z -> base.y * z + base.x.
    zx, zy = 0.0, math.exp(distance)
    half = angle / 2.0
    cs, sn = math.cos(half), math.sin(half)
    # (z cos - sin) / (z sin + cos)
    num_x, num_y = zx * cs - sn, zy * cs
    den_x, den_y = zx * sn + cs, zy * sn
    den = den_x * den_x + den_y * den_y
    rx = (num_x * den_x + num_y * den_y) / den
    ry = (num_y * den_x - num_x * den_y) / den
    return HPoint(base.y * rx + base.x, base.y * ry)


def random_triangles(
    count: int, seed: int, diameter: float
) -> Iterator[tuple[HPoint, HPoint, HPoint]]:
    """Seeded triangles with pairwise distances at most ``diameter``.

    Two vertices go at distance at most diameter/2 from a base vertex, so
    the bound holds by the triangle inequality and the draw sequence does
    not depend on the diameter (the same seed yields scaled families).
    """
    rng = random.Random(seed)
    base = HPoint(0.0, 1.0)
    for _ in range(count):
        t2, t3 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        u2, u3 = rng.uniform(0, 1), rng.uniform(0, 1)
        v2 = point_at(base, t2, u2 * diameter / 2.0)
        v3 = point_at(base, t3, u3 * diameter / 2.0)
        yield base, v2, v3


def verify_thinness_bound(
    count: int, seed: int, diameter: float = 25.0, samples_per_side: int = 48
) -> ThinnessSurvey:
    """Measure every sampled triangle against the universal thinness bound."""
    check_count(count, "triangle count", 1)
    if not 0.0 <= diameter < math.inf:
        raise ValueError(f"diameter must be finite and nonnegative, got {diameter}")
    worst = 0.0
    triangles = random_triangles(count, seed, diameter)
    while chunk := list(islice(triangles, _CHUNK)):
        for report in _thinness_batch(chunk, samples_per_side):
            worst = max(worst, report.thinness)
    return ThinnessSurvey(worst, worst < THINNESS_BOUND + 1e-6, count)
