"""Upper half-plane geometry: distances, geodesics, triangle thinness.

Geodesics are vertical rays or semicircles orthogonal to the real axis.
Point-to-side distances use the closed-form foot of perpendicular (for a
side on the semicircle |z - c| = R and a point p = x + iy, writing
M = (x-c)^2 + y^2 + R^2 and K = 2R(x-c), the squared-distance function of
the angle is minimized at cos t = K/M, giving cosh d = sqrt(M^2 - K^2) /
(2yR) when the foot lands inside the segment).  Only the maximization
over points p along a side is numerical: coarse samples refined by golden
section around the best one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

THINNESS_BOUND = math.log(1.0 + math.sqrt(2.0))

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    samples_per_side: int
    maximizing_point: HPoint


@dataclass(frozen=True)
class ThinnessSurvey:
    max_thinness: float
    bound: float
    passed: bool
    triangles: int
    seed: int
    diameter: float


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
    cx, r = _circle_through(p, q)
    # Arclength along the semicircle is u = log tan(theta / 2).
    up = math.log(math.tan(math.atan2(p.y, p.x - cx) / 2.0))
    uq = math.log(math.tan(math.atan2(q.y, q.x - cx) / 2.0))
    u = (1.0 - t) * up + t * uq
    theta = 2.0 * math.atan(math.exp(u))
    return HPoint(cx + r * math.cos(theta), r * math.sin(theta))


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


def _refine_max(f, lo: float, hi: float, iterations: int = 60) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = c if fc >= fd else d
    return t, max(fc, fd)


def h_triangle_thinness(
    a: HPoint, b: HPoint, c: HPoint, samples_per_side: int = 64
) -> HTriangleReport:
    """Max over points p on each side of the distance to the other two sides.

    The reported value never overshoots the true maximum (it is a maximum
    of exact distances at finitely many points), so it respects any upper
    bound the true value does.
    """
    if samples_per_side < 2:
        raise ValueError("need at least 2 samples per side")
    sides = ((a, b, c), (b, c, a), (c, a, b))
    best_val = 0.0
    best_point = a
    for u, v, w in sides:
        if u == v:
            continue

        def gap(t: float, u=u, v=v, w=w) -> float:
            p = h_geodesic_point(u, v, t)
            return min(point_to_side(p, v, w), point_to_side(p, w, u))

        ts = [i / (samples_per_side - 1) for i in range(samples_per_side)]
        vals = [gap(t) for t in ts]
        i = max(range(len(ts)), key=vals.__getitem__)
        lo = ts[max(0, i - 1)]
        hi = ts[min(len(ts) - 1, i + 1)]
        t_ref, val_ref = _refine_max(gap, lo, hi)
        if vals[i] > val_ref:
            t_ref, val_ref = ts[i], vals[i]
        if val_ref > best_val:
            best_val = val_ref
            best_point = h_geodesic_point(u, v, t_ref)
    return HTriangleReport((a, b, c), best_val, samples_per_side, best_point)


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
    if count < 1:
        raise ValueError(f"triangle count must be at least 1, got {count}")
    if not 0.0 <= diameter < math.inf:
        raise ValueError(f"diameter must be finite and nonnegative, got {diameter}")
    worst = 0.0
    for a, b, c in random_triangles(count, seed, diameter):
        report = h_triangle_thinness(a, b, c, samples_per_side)
        if report.thinness > worst:
            worst = report.thinness
    return ThinnessSurvey(
        max_thinness=worst,
        bound=THINNESS_BOUND,
        passed=worst < THINNESS_BOUND + 1e-6,
        triangles=count,
        seed=seed,
        diameter=diameter,
    )
