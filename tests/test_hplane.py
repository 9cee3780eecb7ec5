import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from groupgeom import hplane
from groupgeom.hplane import (
    _CHUNK,
    _GOLDEN,
    THINNESS_BOUND,
    HPoint,
    euclid_fat_witness,
    h_dist,
    h_geodesic_point,
    h_triangle_thinness,
    point_at,
    point_to_side,
    random_triangles,
    verify_thinness_bound,
)

# quantized so that "distinct" points differ by more than acosh granularity
coords = st.floats(-20.0, 20.0).map(lambda v: round(v, 4))
heights = st.floats(0.05, 50.0).map(lambda v: round(v, 4))
points = st.builds(HPoint, coords, heights)


def test_point_validation():
    with pytest.raises(ValueError):
        HPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        HPoint(1.0, -2.0)


def test_dist_examples():
    assert abs(h_dist(HPoint(0, 1), HPoint(0, math.e)) - 1.0) < 1e-12
    assert abs(h_dist(HPoint(0, 1), HPoint(1, 1)) - math.acosh(1.5)) < 1e-12
    p = HPoint(0.3, 2.0)
    assert h_dist(p, p) == 0.0


@given(points, points)
def test_dist_symmetric_positive(p, q):
    d = h_dist(p, q)
    assert d == h_dist(q, p)
    assert d >= 0.0
    if p != q:
        assert d > 0.0


@given(points, points, points)
def test_dist_triangle_inequality(p, q, r):
    assert h_dist(p, r) <= h_dist(p, q) + h_dist(q, r) + 1e-9


@given(points, points, st.floats(-30.0, 30.0), st.floats(0.05, 20.0))
def test_dist_invariant_under_translation_and_scaling(p, q, shift, scale):
    d = h_dist(p, q)
    p2 = HPoint(p.x + shift, p.y)
    q2 = HPoint(q.x + shift, q.y)
    assert abs(h_dist(p2, q2) - d) < 1e-9
    p3 = HPoint(p.x * scale, p.y * scale)
    q3 = HPoint(q.x * scale, q.y * scale)
    assert abs(h_dist(p3, q3) - d) < 1e-9


def test_geodesic_point_examples():
    mid = h_geodesic_point(HPoint(0, 1), HPoint(0, math.e**2), 0.5)
    assert abs(mid.x) < 1e-12 and abs(mid.y - math.e) < 1e-9
    apex = h_geodesic_point(HPoint(-1, 1), HPoint(1, 1), 0.5)
    assert abs(apex.x) < 1e-9 and abs(apex.y - math.sqrt(2)) < 1e-9
    p, q = HPoint(0.4, 0.8), HPoint(-2.0, 3.0)
    assert h_dist(h_geodesic_point(p, q, 0.0), p) < 1e-9
    assert h_dist(h_geodesic_point(p, q, 1.0), q) < 1e-9
    with pytest.raises(ValueError):
        h_geodesic_point(p, p, 0.5)


@given(points, points, st.floats(0.0, 1.0))
@example(p=HPoint(0.0, 1.0), q=HPoint(0.0, 3.0), t=5.960464477539063e-08)
@example(p=HPoint(0.0, 0.0547), q=HPoint(0.0001, 8.0), t=0.0)  # near-vertical arc
def test_geodesic_additivity(p, q, t):
    if p == q:
        return
    g = h_geodesic_point(p, q, t)
    total = h_dist(p, q)
    assert abs(h_dist(p, g) - t * total) < 1e-9
    assert abs(h_dist(p, g) + h_dist(g, q) - total) < 1e-9


def test_survey_geodesic_matches_scalar():
    # 20,000 seeded sides, every fifth near-vertical (dx from 1e-9 to 1e-3)
    rng = random.Random(20)
    rows = []
    for k in range(20_000):
        px, py, qy = rng.uniform(-20, 20), rng.uniform(0.05, 50), rng.uniform(0.05, 50)
        qx = px + 10 ** rng.uniform(-9, -3) if k % 5 == 0 else rng.uniform(-20, 20)
        rows.append((px, py, qx, qy, rng.random()))
    px, py, qx, qy, t = np.array(rows).T
    x, y = hplane._geodesic(px, py, qx, qy)(t)
    worst = max(
        h_dist(HPoint(xk, yk), h_geodesic_point(HPoint(*row[:2]), HPoint(*row[2:4]), row[4]))
        for row, xk, yk in zip(rows, x, y)
    )
    assert worst <= 1e-12


@given(points, points, points, st.floats(0.0, 1.0))
def test_point_to_side_is_a_lower_envelope(p, a, b, t):
    # exact segment distance is never above the distance to any sampled point
    if a == b:
        return
    d = point_to_side(p, a, b)
    sample = h_geodesic_point(a, b, t)
    assert d <= h_dist(p, sample) + 1e-7
    assert d <= min(h_dist(p, a), h_dist(p, b)) + 1e-7


def test_point_to_side_foot_cases():
    # apex of the unit semicircle seen from straight above
    d = point_to_side(HPoint(0, 3), HPoint(-1, 1e-6 + 1), HPoint(1, 1 + 1e-6))
    assert d > 0
    # vertical side: closest point is the clamped foot
    d2 = point_to_side(HPoint(1, 1), HPoint(0, 0.5), HPoint(0, 2.0))
    assert abs(d2 - math.asinh(1.0)) < 1e-9  # foot at sqrt(2) is inside [0.5, 2]
    d3 = point_to_side(HPoint(1, 1), HPoint(0, 0.1), HPoint(0, 0.2))
    assert abs(d3 - h_dist(HPoint(1, 1), HPoint(0, 0.2))) < 1e-12


@pytest.mark.parametrize("eps", [1e-9, 6.5e-8])
def test_point_to_side_exact_just_above_the_arc(eps):
    # The side lies on the unit circle; its foot from (0, 1 + eps) is (0, 1).
    d = point_to_side(HPoint(0, 1 + eps), HPoint(-0.6, 0.8), HPoint(0.6, 0.8))
    assert math.isclose(d, math.log1p(eps), rel_tol=1e-6)


def test_tiny_triangle_nearly_euclidean():
    report = h_triangle_thinness(
        HPoint(0, 1), HPoint(1e-3, 1), HPoint(0, 1.0005), samples_per_side=32
    )
    assert report.thinness < 1e-3


def test_collinear_triangle_is_zero_thin():
    report = h_triangle_thinness(HPoint(0, 1), HPoint(0, 2), HPoint(0, 4), 32)
    assert report.thinness < 1e-12


def test_degenerate_repeated_vertex():
    report = h_triangle_thinness(HPoint(0, 1), HPoint(0, 1), HPoint(1, 1), 16)
    assert report.thinness < 1e-6


def test_big_equilateral_approaches_the_bound():
    side = 20.0
    rho = math.asinh(math.sqrt((math.cosh(side) - 1.0) / 1.5))
    base = HPoint(0.0, 1.0)
    a, b, c = (point_at(base, 2 * math.pi * k / 3 + 0.4, rho) for k in range(3))
    for u, v in ((a, b), (b, c), (a, c)):
        assert abs(h_dist(u, v) - side) < 1e-6
    report = h_triangle_thinness(a, b, c, samples_per_side=64)
    assert 0.83 <= report.thinness < THINNESS_BOUND + 1e-6


def test_euclid_fat_witness():
    assert abs(euclid_fat_witness(1.0) - 2 * math.sqrt(3)) < 1e-12
    assert abs(euclid_fat_witness(0.5) - math.sqrt(3)) < 1e-12
    assert abs(euclid_fat_witness(2.0) - 2 * euclid_fat_witness(1.0)) < 1e-12
    with pytest.raises(ValueError):
        euclid_fat_witness(0.0)


def test_point_at_distances():
    base = HPoint(0.0, 1.0)
    rng = random.Random(9)
    for _ in range(50):
        d = rng.uniform(0.0, 12.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        q = point_at(base, theta, d)
        assert abs(h_dist(base, q) - d) < 1e-8


def test_random_triangles_respect_diameter():
    for tri in random_triangles(100, seed=3, diameter=10.0):
        a, b, c = tri
        assert h_dist(a, b) <= 10.0 + 1e-9
        assert h_dist(a, c) <= 10.0 + 1e-9
        assert h_dist(b, c) <= 10.0 + 1e-9


def test_survey_is_deterministic_and_bounded():
    s1 = verify_thinness_bound(60, seed=21, diameter=12.0)
    s2 = verify_thinness_bound(60, seed=21, diameter=12.0)
    assert s1.max_thinness == s2.max_thinness
    assert s1.passed
    assert 0.0 < s1.max_thinness < THINNESS_BOUND + 1e-6


def test_survey_ladder_monotone():
    values = [
        verify_thinness_bound(60, seed=13, diameter=float(d)).max_thinness
        for d in (1, 2, 4, 8, 16)
    ]
    assert values == sorted(values)


@pytest.mark.parametrize(
    "count, diameter, message",
    [
        (-3, 25.0, "triangle count"),
        (0, 25.0, "triangle count"),
        (5, -5.0, "diameter"),
        (5, math.nan, "diameter"),
        (5, math.inf, "diameter"),
    ],
)
def test_survey_rejects_bad_count_and_diameter(count, diameter, message):
    with pytest.raises(ValueError, match=message):
        verify_thinness_bound(count, seed=1, diameter=diameter)


# ---------------------------------------------------------------------------
# the array path against the scalar maximization it replaced


def _refine_max(f, lo, hi, iterations=60):
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


def scalar_thinness(a, b, c, samples_per_side):
    """One triangle at a time with scalar calls: the thinness, and the
    (value, point) maximum of each nondegenerate side."""
    best_val, sides = 0.0, []
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        if u == v:
            continue

        def gap(t, u=u, v=v, w=w):
            p = h_geodesic_point(u, v, t)
            return min(point_to_side(p, v, w), point_to_side(p, w, u))

        ts = [i / (samples_per_side - 1) for i in range(samples_per_side)]
        vals = [gap(t) for t in ts]
        i = max(range(len(ts)), key=vals.__getitem__)
        t_ref, val_ref = _refine_max(gap, ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)])
        if vals[i] > val_ref:
            t_ref, val_ref = ts[i], vals[i]
        sides.append((val_ref, h_geodesic_point(u, v, t_ref)))
        best_val = max(best_val, val_ref)
    return best_val, sides


def assert_matches_scalar(report, samples_per_side):
    thinness, sides = scalar_thinness(*report.vertices, samples_per_side)
    assert abs(report.thinness - thinness) <= 1e-9
    # On a 0-thin triangle the gap is rounding noise and any point attains
    # it; where two sides tie up to rounding (a mirror-symmetric triangle),
    # either side's point is a maximizing point.
    if thinness > 1e-9:
        tied = [point for value, point in sides if value >= thinness - 1e-12]
        assert min(h_dist(report.maximizing_point, point) for point in tied) <= 1e-9


def assert_exact_at_its_point(report):
    a, b, c = report.vertices
    m = report.maximizing_point
    if report.thinness == 0.0:
        assert m == a
        return
    assert report.thinness in [
        min(point_to_side(m, v, w), point_to_side(m, w, u))
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b))
    ]


@pytest.fixture
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


HAND_MADE = {
    "repeated-vertex": (HPoint(0, 1), HPoint(0, 1), HPoint(1, 1)),
    "all-equal": (HPoint(0.3, 2), HPoint(0.3, 2), HPoint(0.3, 2)),
    "collinear-vertical": (HPoint(0, 1), HPoint(0, 2), HPoint(0, 4)),
    # ab and bc count as vertical; ca is an arc of radius about 1e12
    "two-vertical-sides": (HPoint(0, 1), HPoint(0, 4), HPoint(3e-12, 2)),
    "tiny": (HPoint(0, 1), HPoint(1e-3, 1), HPoint(0, 1.0005)),
    "big-equilateral": tuple(
        point_at(HPoint(0.0, 1.0), 2 * math.pi * k / 3 + 0.4,
                 math.asinh(math.sqrt((math.cosh(20.0) - 1.0) / 1.5)))
        for k in range(3)
    ),
}


@pytest.mark.parametrize("samples", [2, 3, 16, 48, 64])
@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_triangles_match_scalar(name, samples, no_warnings):
    report = h_triangle_thinness(*HAND_MADE[name], samples)
    assert_matches_scalar(report, samples)
    assert_exact_at_its_point(report)


@pytest.mark.parametrize("samples", [2, 3, 16, 48, 64])
@pytest.mark.parametrize("diameter", [1.0, 4.0, 12.0, 25.0])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_batch_matches_scalar_on_random_triangles(seed, diameter, samples, no_warnings):
    triangles = list(random_triangles(8, seed, diameter))
    reports = hplane._thinness_batch(triangles, samples)
    assert [r.vertices for r in reports] == triangles
    for report in reports:
        assert_matches_scalar(report, samples)


@given(points, points, points)
def test_batch_matches_scalar_on_any_triangle(a, b, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = h_triangle_thinness(a, b, c, 16)
    assert_matches_scalar(report, 16)
    assert_exact_at_its_point(report)


def test_reported_value_is_exact_at_its_point(no_warnings):
    for report in hplane._thinness_batch(list(random_triangles(200, 11, 25.0)), 48):
        assert_exact_at_its_point(report)
    assert h_triangle_thinness(*HAND_MADE["collinear-vertical"]).thinness == 0.0


# max_thinness of verify_thinness_bound(1000, seed=7, diameter=d), the
# surveys of criterion 8, computed triangle by triangle with scalar_thinness
# at 48 samples per side (about 20 s, too slow to repeat in every run)
CRITERION_8_SCALAR = {
    25.0: 0.8812560741597141,
    1.0: 0.2323005220329464,
    2.0: 0.42681230562951783,
    4.0: 0.6739532217332642,
    8.0: 0.8390402592088926,
    16.0: 0.879290988110339,
}


@pytest.mark.parametrize("diameter", sorted(CRITERION_8_SCALAR))
def test_criterion_8_surveys_match_scalar(diameter, no_warnings):
    survey = verify_thinness_bound(1000, seed=7, diameter=diameter)
    assert abs(survey.max_thinness - CRITERION_8_SCALAR[diameter]) <= 1e-9


def test_survey_runs_in_chunks_and_matches_scalar(monkeypatch):
    chunks = []
    batch = hplane._thinness_batch

    def recording(triangles, samples_per_side):
        reports = batch(triangles, samples_per_side)
        chunks.append(reports)
        return reports

    monkeypatch.setattr(hplane, "_thinness_batch", recording)
    survey = verify_thinness_bound(_CHUNK + 1, seed=4, diameter=12.0, samples_per_side=16)
    assert [len(c) for c in chunks] == [_CHUNK, 1]
    reports = [r for c in chunks for r in c]
    assert [r.vertices for r in reports] == list(random_triangles(_CHUNK + 1, 4, 12.0))
    for report in reports:
        assert_matches_scalar(report, 16)
    assert survey.max_thinness == max(r.thinness for r in reports)


def test_survey_memory_does_not_grow_with_count():
    peaks = []
    for count in (_CHUNK, 4 * _CHUNK):
        tracemalloc.start()
        try:
            verify_thinness_bound(count, seed=2, diameter=25.0, samples_per_side=8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_survey_rejects_too_few_samples():
    with pytest.raises(ValueError, match="samples_per_side must be at least 2"):
        verify_thinness_bound(3, seed=1, samples_per_side=1)
    with pytest.raises(ValueError, match="samples_per_side must be at least 2"):
        h_triangle_thinness(HPoint(0, 1), HPoint(1, 1), HPoint(0, 2), 1)


def test_survey_memory_does_not_grow_with_samples():
    # The coarse samples go a few columns at a time, so more samples per
    # side cost passes, not memory.
    triangles = list(random_triangles(256, 3, 25.0))
    peaks = []
    for samples in (48, 480):
        tracemalloc.start()
        try:
            hplane._thinness_batch(triangles, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


@pytest.mark.parametrize("samples", [2.5, 48.0, "48", None, True])
def test_survey_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="samples_per_side"):
        h_triangle_thinness(HPoint(0, 1), HPoint(1, 1), HPoint(0, 2), samples)
    with pytest.raises(ValueError, match="samples_per_side"):
        verify_thinness_bound(3, seed=1, samples_per_side=samples)


def test_survey_accepts_numpy_integer_samples():
    assert verify_thinness_bound(3, seed=1, samples_per_side=np.int64(16)) == (
        verify_thinness_bound(3, seed=1, samples_per_side=16)
    )


# ---------------------------------------------------------------------------
# the array path against its earlier form, which evaluated the vertical
# formula for every side and took the coarse samples one column at a time:
# the reports must stay bit-identical


def _reference_geodesic(px, py, qx, qy):
    vertical, cx, _ = hplane._circle(px, py, qx, qy)
    s = np.where(qx > px, 1.0, -1.0)
    half = np.arctan2(s * py, s * (cx - px)) / 2.0
    cs, sn = np.cos(half), np.sin(half)
    length = hplane._dist(px, py, qx, qy)

    def point(t):
        zy = np.exp(t * length)
        num_y, den_y = zy * cs, zy * sn
        den = cs * cs + den_y * den_y
        x = py * ((-sn * cs + num_y * den_y) / den) + px
        y = py * ((num_y * cs + sn * den_y) / den)
        return np.where(vertical, px, x), np.where(vertical, py * (qy / py) ** t, y)

    return point


def _reference_to_segment(ax, ay, bx, by):
    vertical, cx, r = hplane._circle(ax, ay, bx, by)
    ta, tb = (
        np.where(x > 0.0, y / (1.0 + x), (1.0 - x) / y)
        for x, y in (((ax - cx) / r, ay / r), ((bx - cx) / r, by / r))
    )
    def dist(x, y):
        foot = np.clip(np.hypot(x - ax, y), np.minimum(ay, by), np.maximum(ay, by))
        u, v = (x - cx) / r, y / r
        foot_tan = np.sqrt(((u - 1.0) ** 2 + v * v) / ((u + 1.0) ** 2 + v * v))
        on_arc = (np.minimum(ta, tb) <= foot_tan) & (foot_tan <= np.maximum(ta, tb))
        h = np.hypot(x - cx, y)
        arc = np.arcsinh(np.abs(h - r) * (h + r) / (2.0 * r * y))
        ends = np.minimum(hplane._dist(x, y, ax, ay), hplane._dist(x, y, bx, by))
        return np.where(vertical, hplane._dist(x, y, ax, foot), np.where(on_arc, arc, ends))

    return dist


def _reference_golden_max(f, a, b):
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    return np.where(fc >= fd, c, d), np.maximum(fc, fd)


def reference_batch(triangles, samples_per_side):
    """(thinness, maximizing_point) of each triangle, as the earlier form
    of ``hplane._thinness_batch`` computed them."""
    xy = np.array([[(p.x, p.y) for p in tri] for tri in triangles]).transpose(1, 0, 2)
    (ux, uy), (vx, vy), (wx, wy) = (np.roll(xy, -k, axis=0).reshape(-1, 2).T for k in range(3))
    with np.errstate(all="ignore"):
        point = _reference_geodesic(ux, uy, vx, vy)
        to_vw = _reference_to_segment(vx, vy, wx, wy)
        to_wu = _reference_to_segment(wx, wy, ux, uy)

        def gap(t):
            x, y = point(t)
            return np.minimum(to_vw(x, y), to_wu(x, y))

        ts = np.arange(samples_per_side) / (samples_per_side - 1)
        best, i = gap(ts[0]), np.zeros(len(ux), dtype=int)
        for k in range(1, samples_per_side):
            val = gap(ts[k])
            best, i = np.maximum(val, best), np.where(val > best, k, i)
        lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, samples_per_side - 1)]
        t_ref, val_ref = _reference_golden_max(gap, lo, hi)
    t_ref = np.where(best > val_ref, ts[i], t_ref).reshape(3, -1)
    val_ref = np.where((ux == vx) & (uy == vy), -np.inf, np.maximum(best, val_ref)).reshape(3, -1)
    out = []
    for j, (k, tri) in enumerate(zip(np.argmax(val_ref, axis=0), triangles)):
        thinness, at = 0.0, tri[0]
        if val_ref[k, j] > 0.0:
            u, v, w = tri[k], tri[k - 2], tri[k - 1]
            p = h_geodesic_point(u, v, float(t_ref[k, j]))
            value = min(point_to_side(p, v, w), point_to_side(p, w, u))
            if value > 0.0:
                thinness, at = value, p
        out.append((thinness, at))
    return out


def assert_identical_to_reference(triangles, samples):
    reports = hplane._thinness_batch(triangles, samples)
    assert [(r.thinness, r.maximizing_point) for r in reports] == reference_batch(
        triangles, samples
    )


SAMPLES = [2, 3, 16, 48, 64]


@pytest.mark.parametrize("samples", SAMPLES)
def test_batch_identical_to_reference_on_hand_made(samples):
    triangles = [HAND_MADE[name] for name in sorted(HAND_MADE)]
    assert_identical_to_reference(triangles, samples)  # one batch
    for triangle in triangles:  # and one triangle at a time
        assert_identical_to_reference([triangle], samples)


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("diameter", [0.5, 4.0, 25.0, 60.0])
def test_batch_identical_to_reference_on_random_triangles(diameter, samples):
    assert_identical_to_reference(list(random_triangles(40, 17, diameter)), samples)


def _mixed_batch(seed, diameter):
    """Random triangles, every third given a vertical side and every fifth
    a repeated vertex."""
    triangles = []
    for k, (a, b, c) in enumerate(random_triangles(45, seed, diameter)):
        if k % 3 == 0:
            b = HPoint(a.x, b.y + 0.5)
        if k % 5 == 0:
            c = a
        triangles.append((a, b, c))
    return triangles


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("diameter", [0.5, 12.0, 60.0])
def test_batch_identical_to_reference_with_vertical_sides(diameter, samples):
    triangles = _mixed_batch(5, diameter)
    assert any(a.x == b.x and a.y != b.y for a, b, _ in triangles)
    assert_identical_to_reference(triangles, samples)


@pytest.mark.parametrize("samples", SAMPLES)
def test_batch_identical_to_reference_with_repeated_vertices(samples):
    repeated = [(a, a, c) for a, _, c in random_triangles(20, 8, 12.0)]
    repeated += [(a, b, b) for a, b, _ in random_triangles(20, 9, 12.0)]
    repeated.append((HPoint(0.3, 2), HPoint(0.3, 2), HPoint(0.3, 2)))
    assert_identical_to_reference(repeated, samples)


@pytest.mark.parametrize("diameter", sorted(CRITERION_8_SCALAR))
def test_criterion_8_surveys_identical_to_reference(diameter):
    triangles = list(random_triangles(1000, 7, diameter))
    worst = max(
        thinness
        for start in range(0, len(triangles), _CHUNK)
        for thinness, _ in reference_batch(triangles[start : start + _CHUNK], 48)
    )
    assert verify_thinness_bound(1000, seed=7, diameter=diameter).max_thinness == worst
