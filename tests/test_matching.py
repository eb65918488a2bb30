"""Matching-curve construction, scaled distances, and the failure sweep."""

import math

import numpy as np
import pytest

import stellar_match.matching as matching
from stellar_match.eos import EosSpec
from stellar_match.matching import (
    GRID_EDGE,
    LABEL_EOS_VALIDITY,
    LogGrid,
    MatchingCurve,
    MatchingCurvePoint,
    SAGITTA_TOL,
    SweepSampler,
    _forward_point,
    _segment_distance,
    ae_failure_sweep,
    distance_to_curves,
    scan_components,
)
from stellar_match import tov
from stellar_match.errors import StellarMatchError
from stellar_match.reports import canonical_json
from stellar_match.tov import CASE11, ShootConfig, admissible


@pytest.fixture(scope="module")
def newt_gamma2_curves():
    eos = EosSpec(gamma=2.0)
    return eos, scan_components(eos, LogGrid(1e-4, 1e0, 4))


@pytest.fixture(scope="module")
def newt_gamma53_curves():
    eos = EosSpec(gamma=5.0 / 3.0)
    return eos, scan_components(eos, LogGrid(1e-4, 1e0, 4))


@pytest.fixture(scope="module")
def rel_gamma53_curves():
    eos = EosSpec(gamma=5.0 / 3.0, c_light=1.0)
    return eos, scan_components(eos, LogGrid(1e-4, 1e-2, 4))


# -- grid ------------------------------------------------------------------


def test_log_grid_requires_two_points_per_decade():
    with pytest.raises(ValueError):
        LogGrid(1e-4, 1e0, 1.5)


def test_log_grid_requires_ordered_positive_bounds():
    with pytest.raises(ValueError):
        LogGrid(1e0, 1e-4, 4)
    with pytest.raises(ValueError):
        LogGrid(0.0, 1e-4, 4)


def test_log_grid_density():
    values = LogGrid(1e-3, 1e0, 2).values()
    assert values[0] == pytest.approx(1e-3) and values[-1] == pytest.approx(1.0)
    per_decade = (len(values) - 1) / 3.0
    assert per_decade >= 2.0


# -- component scanning ----------------------------------------------------


def test_gamma2_curve_is_vertical_line(newt_gamma2_curves):
    # A gamma = 2 polytrope has radius independent of central density, so
    # the whole curve sits at R = sqrt(pi/2).
    _, curves = newt_gamma2_curves
    assert len(curves) == 1
    curve = curves[0]
    assert curve.lower_label == GRID_EDGE and curve.upper_label == GRID_EDGE
    target = math.sqrt(math.pi / 2.0)
    assert np.max(np.abs(curve.radii / target - 1.0)) < 1e-9
    assert np.all(np.diff(curve.masses) > 0)


def test_curve_points_sorted_by_pressure(newt_gamma53_curves):
    _, curves = newt_gamma53_curves
    assert np.all(np.diff(curves[0].pressures) > 0)


def test_gamma53_radius_power_law(newt_gamma53_curves):
    # R scales as the -1/10 power of central pressure for gamma = 5/3.
    _, curves = newt_gamma53_curves
    assert len(curves) == 1
    curve = curves[0]
    assert np.all(np.diff(curve.radii) < 0)
    slope = np.polyfit(np.log(curve.pressures), np.log(curve.radii), 1)[0]
    assert slope == pytest.approx(-0.1, abs=1e-4)


def test_validity_exhausted_grid_gives_no_curves():
    # Central pressures all above the causal bound: every forward shot is
    # refused, and the absence of curves is the (valid) result.
    eos = EosSpec(gamma=5.0 / 3.0, c_light=1.0)
    p_max = eos.pressure_of_density(eos.rho_valid_max)
    curves = scan_components(eos, LogGrid(2.0 * p_max, 20.0 * p_max, 4))
    assert curves == []


def test_validity_bounded_endpoint_bisection():
    eos = EosSpec(gamma=5.0 / 3.0, c_light=1.0)
    p_max = eos.pressure_of_density(eos.rho_valid_max)
    curves = scan_components(eos, LogGrid(1e-2, 1e0, 4))
    assert len(curves) == 1
    curve = curves[0]
    assert curve.lower_label == GRID_EDGE
    assert curve.upper_label == LABEL_EOS_VALIDITY
    assert curve.p_hi == pytest.approx(p_max, rel=1e-3)
    p_fail, p_succ = curve.upper_bracket
    assert 0.0 < math.log(p_fail / p_succ) < 1.01e-4


def test_endpoint_is_open_interval_boundary():
    # Stepping a small fraction inside the refined endpoint succeeds and
    # stepping the same fraction outside fails, so the bisection bracket
    # genuinely straddles the component boundary.
    eos = EosSpec(gamma=5.0 / 3.0, c_light=1.0)
    curves = scan_components(eos, LogGrid(1e-2, 1e0, 4))
    curve = curves[0]
    config = ShootConfig()
    inside, label_in = _forward_point(eos, curve.p_hi * (1.0 - 1e-3), config)
    outside, label_out = _forward_point(eos, curve.p_hi * (1.0 + 1e-3), config)
    assert inside is not None and label_in is None
    assert outside is None and label_out == LABEL_EOS_VALIDITY


def _depth_first_refine(eos, points_by_p, refs, config, max_depth):
    """The sagitta refinement as a depth-first stack of single shots."""

    def scaled(pt):
        return np.array([pt.radius / refs[0], pt.mass / refs[1]])

    ps = sorted(points_by_p)
    stack = [(p1, p2, 0) for p1, p2 in zip(ps[:-1], ps[1:])]
    while stack:
        p1, p2, depth = stack.pop()
        if depth >= max_depth:
            continue
        p_mid = math.sqrt(p1 * p2)
        point, _ = _forward_point(eos, p_mid, config)
        if point is None or _segment_distance(
                scaled(point), scaled(points_by_p[p1]),
                scaled(points_by_p[p2])) <= SAGITTA_TOL:
            continue
        points_by_p[p_mid] = point
        stack += [(p1, p_mid, depth + 1), (p_mid, p2, depth + 1)]


@pytest.mark.parametrize("gamma, c_light, grid, n_vertices", [
    (5.0 / 3.0, 1.0, LogGrid(1e-6, 1e-2, 4), 127),  # criterion 4's scan
    (2.0, math.inf, LogGrid(1e-4, 1e0, 4), None),
    (5.0 / 3.0, math.inf, LogGrid(1e-4, 1e0, 4), None),
    (5.0 / 3.0, 1.0, LogGrid(1e-4, 1e-2, 4), None),
])
def test_scan_keeps_the_depth_first_vertex_set(monkeypatch, gamma, c_light,
                                               grid, n_vertices):
    # In planned rounds, each round's midpoints one batch and batches of
    # LANES_MIN or more shot as lanes, the scan keeps the vertices that
    # shot-by-shot depth-first refinement keeps.
    eos = EosSpec(gamma, c_light=c_light)
    got = scan_components(eos, grid)
    monkeypatch.setattr(matching, "_refine_sagitta", _depth_first_refine)
    monkeypatch.setattr(matching, "_forward_points", lambda eos, ps, config: [
        _forward_point(eos, p, config) for p in ps])
    want = scan_components(eos, grid)
    assert [c.pressures.tolist() for c in got] == [
        c.pressures.tolist() for c in want]
    if n_vertices is not None:
        assert sum(len(c.points) for c in got) == n_vertices
    for a, b in zip(got, want):
        np.testing.assert_allclose(a.radii, b.radii, rtol=1e-12)
        np.testing.assert_allclose(a.masses, b.masses, rtol=1e-12)


def _scan_batches(monkeypatch, eos, grid):
    """(curves, the central pressures of each _forward_points batch) of
    one scan."""
    batches = []
    real = matching._forward_points

    def record(eos, ps, config):
        batches.append(list(ps))
        return real(eos, ps, config)

    monkeypatch.setattr(matching, "_forward_points", record)
    return scan_components(eos, grid), batches


@pytest.mark.parametrize("eos, grid, batches, shots, n_vertices", [
    # criterion 4's and match-rel53's scan: shot one level at a time, it
    # takes six batches (17, 16, 32, 62, 106 and 20 shots, 253 in all)
    (EosSpec(5.0 / 3.0, c_light=1.0), LogGrid(1e-6, 1e-2, 4), 3, 300, 127),
    # match-lambda's scan: a two-point grid has no turn to predict from,
    # and level by level it takes four batches (2, 1, 2 and 4 shots)
    (EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1)),
     LogGrid(2e-3, 3e-3, 2), 3, 9, 5),
])
def test_scan_plans_its_refinement_in_few_batches(monkeypatch, eos, grid,
                                                  batches, shots,
                                                  n_vertices):
    [curve], got = _scan_batches(monkeypatch, eos, grid)
    sizes = [len(batch) for batch in got]
    assert 0 not in sizes
    assert len(sizes) <= batches
    assert sum(sizes) <= shots
    assert len(curve.points) == n_vertices  # as level by level


def test_default_scan_shoots_nothing_on_speculation(monkeypatch):
    # The default `match` scan's grid bends too little to predict a split,
    # and its 24 midpoints all pass: the grid, then those midpoints.
    grid = LogGrid(1e-5, 1e-2, 8)
    _, got = _scan_batches(monkeypatch, EosSpec(2.0), grid)
    values = grid.values().tolist()
    assert got == [values, [math.sqrt(p1 * p2)
                            for p1, p2 in zip(values[:-1], values[1:])]]


def test_refinement_bounds_chord_deviation(newt_gamma53_curves):
    # Forward shots taken between stored vertices must land within the
    # advertised sagitta of the polyline, otherwise near-curve membership
    # tests would leak.
    eos, curves = newt_gamma53_curves
    curve = curves[0]
    rng = np.random.default_rng(5)
    logp = np.log(curve.pressures)
    for _ in range(8):
        k = int(rng.integers(len(logp) - 1))
        p = math.exp(0.5 * (logp[k] + logp[k + 1]))
        point, _ = _forward_point(eos, p, ShootConfig())
        _, dist = distance_to_curves(point.radius, point.mass, curves)
        assert dist < 1e-4


# -- distances -------------------------------------------------------------


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in range(1, 40):
        values = rng.lognormal(0.0, 3.0, n)
        assert matching._median(values) == float(np.median(values))
        assert matching._median(list(values)) == float(np.median(list(values)))


def test_distance_zero_at_curve_vertices(newt_gamma53_curves):
    _, curves = newt_gamma53_curves
    curve = curves[0]
    for pt in curve.points[:: max(1, len(curve.points) // 7)]:
        j, dist = distance_to_curves(pt.radius, pt.mass, curves)
        assert j == 0
        assert dist < 1e-13


def test_distance_matches_brute_force(newt_gamma53_curves):
    # Oracle: dense parameter sampling of every polyline segment.
    _, curves = newt_gamma53_curves
    curve = curves[0]
    poly = curve.scaled_polyline()
    t = np.linspace(0.0, 1.0, 2000)[:, None]
    dense = np.concatenate(
        [poly[k] + t * (poly[k + 1] - poly[k]) for k in range(len(poly) - 1)]
    )
    rng = np.random.default_rng(17)
    for _ in range(6):
        q = np.array([rng.uniform(0.7, 1.4), rng.uniform(0.3, 3.0)])
        brute = np.min(np.hypot(*(dense - q).T))
        _, dist = distance_to_curves(
            q[0] * curve.r_ref, q[1] * curve.m_ref, curves
        )
        assert dist == pytest.approx(brute, abs=1e-6)


def test_distance_of_perpendicular_offset(newt_gamma53_curves):
    # Push a mid-curve vertex off the curve along the local scaled normal;
    # the reported distance should be the push size.
    _, curves = newt_gamma53_curves
    curve = curves[0]
    poly = curve.scaled_polyline()
    k = len(poly) // 2
    tangent = poly[k + 1] - poly[k - 1]
    normal = np.array([-tangent[1], tangent[0]])
    normal /= np.hypot(*normal)
    eps = 1e-3
    q = poly[k] + eps * normal
    _, dist = distance_to_curves(q[0] * curve.r_ref, q[1] * curve.m_ref, curves)
    assert dist == pytest.approx(eps, rel=5e-2)


def test_distance_picks_nearest_curve():
    # Two synthetic single-segment curves; the sample sits on the second.
    def seg(j, r0, m0):
        pts = [
            MatchingCurvePoint(1e-3, r0, m0, 0.0),
            MatchingCurvePoint(1e-2, r0, 2.0 * m0, 0.0),
        ]
        return MatchingCurve(j=j, points=pts, p_lo=1e-3, p_hi=1e-2)

    curves = [seg(0, 1.0, 1.0), seg(1, 30.0, 5.0)]
    j, dist = distance_to_curves(30.0, 7.5, curves)
    assert j == 1
    assert dist < 1e-12


def test_distance_requires_curves():
    with pytest.raises(ValueError):
        distance_to_curves(1.0, 0.1, [])


def _reference_segment_distance(q, a, b):
    """Distance from q to segment [a, b], one segment at a time."""
    d = b - a
    length_sq = float(d @ d)
    if length_sq == 0.0:
        return float(np.hypot(*(q - a)))
    t = float(np.clip((q - a) @ d / length_sq, 0.0, 1.0))
    return float(np.hypot(*(q - (a + t * d))))


def _reference_distance(radius, mass, curves):
    """distance_to_curves segment by segment."""
    best = None
    for curve in curves:
        q = np.array([radius / curve.r_ref, mass / curve.m_ref])
        poly = curve.scaled_polyline()
        if len(poly) == 1:
            dist = float(np.hypot(*(q - poly[0])))
        else:
            dist = min(_reference_segment_distance(q, poly[k], poly[k + 1])
                       for k in range(len(poly) - 1))
        if best is None or dist < best[1]:
            best = (curve.j, dist)
    return best


def test_distance_matches_the_per_segment_reference_bit_for_bit(
        rel_gamma53_curves, newt_gamma2_curves):
    rng = np.random.default_rng(23)
    for _, curves in (rel_gamma53_curves, newt_gamma2_curves):
        radii = np.concatenate([c.radii for c in curves])
        masses = np.concatenate([c.masses for c in curves])
        points = [(pt.radius, pt.mass) for c in curves for pt in c.points]
        points += [(rng.uniform(0.5 * radii.min(), 1.5 * radii.max()),
                    rng.uniform(0.5 * masses.min(), 1.5 * masses.max()))
                   for _ in range(300)]
        for radius, mass in points:
            assert distance_to_curves(radius, mass, curves) == \
                _reference_distance(radius, mass, curves)


def test_distance_to_degenerate_polylines():
    # A repeated vertex makes a zero-length segment and a one-point curve
    # has none; both measure to the vertex, with no division warning.
    def curve(j, pairs):
        return MatchingCurve(j=j, points=[
            MatchingCurvePoint(1e-3 * (k + 1), r, m, 0.0)
            for k, (r, m) in enumerate(pairs)], p_lo=1e-3, p_hi=1e-2)

    curves = [curve(0, [(1.0, 1.0), (1.0, 1.0), (2.0, 1.0)]),
              curve(1, [(5.0, 3.0)])]
    for radius, mass in ((0.5, 1.0), (1.0, 2.0), (4.0, 3.0), (3.0, 1.0)):
        assert distance_to_curves(radius, mass, curves) == \
            _reference_distance(radius, mass, curves)
    assert distance_to_curves(5.0, 3.0, curves) == (1, 0.0)


# -- failure sweep ---------------------------------------------------------


def test_sweep_far_samples_see_no_case11(rel_gamma53_curves):
    eos, curves = rel_gamma53_curves
    sampler = SweepSampler(kind="random", seed=7, min_distance=1e-2)
    report = ae_failure_sweep(eos, curves, sampler, count=16)
    assert report.summary["count"] == 16
    assert report.summary["n_far"] == 16
    assert report.summary["far_case11_count"] == 0
    assert "case11" not in report.summary["cases"]
    assert report.summary["case11_within_delta"] is True
    for rec in report.samples:
        assert rec["distance"] > 1e-2
        assert admissible(rec["radius"], rec["mass"], eos.c_light)


def test_sweep_on_curve_samples_all_case11(rel_gamma53_curves):
    eos, curves = rel_gamma53_curves
    report = ae_failure_sweep(
        eos, curves, SweepSampler(kind="on-curve", seed=3), count=6
    )
    assert report.summary["cases"] == {CASE11: 6}
    for rec in report.samples:
        assert rec["distance"] < 1e-4
        assert curves[0].p_lo <= rec["p_center"] <= curves[0].p_hi


def test_sweep_records_are_sample_independent(rel_gamma53_curves):
    # Each record depends only on its own draw: a shorter sweep is a prefix
    # of a longer one with the same seed, and a rerun is byte-identical.
    # Any batched or process-parallel sweep must keep both properties.
    eos, curves = rel_gamma53_curves
    sampler = SweepSampler(kind="random", seed=11, min_distance=1e-2)
    short = ae_failure_sweep(eos, curves, sampler, count=4)
    full = ae_failure_sweep(eos, curves, sampler, count=8)
    rerun = ae_failure_sweep(eos, curves, sampler, count=8)
    assert short.sample_rows() == full.sample_rows()[:4]
    assert canonical_json(rerun.sample_rows()) == canonical_json(full.sample_rows())
    assert rerun.summary_json() == full.summary_json()


def test_sweep_records_agree_across_the_lanes_threshold(rel_gamma53_curves):
    # A sweep of LANES_MIN or more samples shoots as lanes, a shorter
    # one shot by shot: the records agree except for p_center, which the
    # two paths compute to roundoff.
    eos, curves = rel_gamma53_curves
    sampler = SweepSampler(kind="on-curve", seed=3)
    count = matching.LANES_MIN
    short = ae_failure_sweep(eos, curves, sampler, count=count // 2)
    full = ae_failure_sweep(eos, curves, sampler, count=count)
    rerun = ae_failure_sweep(eos, curves, sampler, count=count)
    assert full.summary["cases"] == {CASE11: count}
    for a, b in zip(short.sample_rows(), full.sample_rows()):
        assert b.pop("p_center") == pytest.approx(a.pop("p_center"), rel=1e-11)
        assert a == b
    assert canonical_json(rerun.sample_rows()) == canonical_json(full.sample_rows())
    assert rerun.summary_json() == full.summary_json()


def test_sweep_lanes_keep_a_failing_sample_to_itself(monkeypatch):
    # One sample's inward shot fails, once by a collapsing step, once by
    # domain faults.  Its record is the scalar one and its neighbours'
    # records do not move.
    eos = EosSpec(gamma=5.0 / 3.0)
    coords = []
    for p_center in (1e-4, 1e-3):
        point, _ = _forward_point(eos, p_center, ShootConfig())
        for fr, fm in ((1.0, 1.0), (1.0, 1.05), (1.1, 1.0), (1.3, 0.7),
                       (1.1, 0.95), (1.3, 1.3), (0.9, 1.0), (1.0, 1.3)):
            coords.append((fr * point.radius, fm * point.mass, None, 1.0))
    m_split = 2.0 * max(mass for _, mass, _, _ in coords)
    coords.insert(5, (1.5 * coords[4][0], 2.0 * m_split, None, 1.0))
    assert len(coords) >= matching.LANES_MIN
    config = ShootConfig()
    before = matching._classify_samples(eos, coords, config)
    radius, mass, _, _ = coords[5]
    r_step = radius * 0.9

    def collapse(mp):
        # dm/dr jumps by -1e8 at r_step where m > m_split: the steps of
        # the one shot that carries such a mass collapse there
        real, real_lanes = tov.tov_rhs, tov._lanes_rhs

        def rhs(eos, r, m, w):
            dm, dw = real(eos, r, m, w)
            return dm - 1e8 * (r < r_step and m > m_split), dw

        def lanes_rhs(eos, r, y):
            out = real_lanes(eos, r, y)
            out[0] -= 1e8 * ((r < r_step) & (y[0] > m_split))
            return out

        mp.setattr(tov, "tov_rhs", rhs)
        mp.setattr(tov, "_lanes_rhs", lanes_rhs)

    def faults(mp):
        def domain_faults(eos, r, m, w):
            return np.asarray(m) > m_split, np.zeros(np.shape(r), dtype=bool)

        mp.setattr(tov, "_domain_faults", domain_faults)

    for patch, words in ((collapse, "integrator failure"),
                         (faults, "metric factor")):
        with monkeypatch.context() as mp:
            patch(mp)
            with pytest.raises(StellarMatchError, match=words) as scalar:
                tov.shoot_from_boundary(eos, radius, mass, config)
            lanes = tov.shoot_from_boundaries(
                eos, [c[0] for c in coords], [c[1] for c in coords], config)
            want = matching._classify_sample(eos, radius, mass, config)
            got = matching._classify_samples(eos, coords, config)
        # the lane collapses where its scalar shot does, to roundoff
        assert type(lanes[5]) is type(scalar.value)
        assert str(lanes[5]).startswith(words)
        assert want == {"case": None, "exit": "error:StellarMatchError"}
        assert got[5] == want
        assert got[:5] + got[6:] == before[:5] + before[6:]


def test_sweep_repeats_byte_identical(rel_gamma53_curves):
    eos, curves = rel_gamma53_curves
    sampler = SweepSampler(kind="random", seed=11, min_distance=1e-2)
    first = ae_failure_sweep(eos, curves, sampler, count=8)
    second = ae_failure_sweep(eos, curves, sampler, count=8)
    assert first.summary_json() == second.summary_json()


def test_sweep_seed_changes_samples(rel_gamma53_curves):
    eos, curves = rel_gamma53_curves
    a = ae_failure_sweep(eos, curves, SweepSampler(seed=1), count=4)
    b = ae_failure_sweep(eos, curves, SweepSampler(seed=2), count=4)
    assert [r["radius"] for r in a.samples] != [r["radius"] for r in b.samples]


def test_grid_sampler_is_deterministic(rel_gamma53_curves):
    eos, curves = rel_gamma53_curves
    sampler = SweepSampler(kind="grid")
    a = ae_failure_sweep(eos, curves, sampler, count=9)
    b = ae_failure_sweep(eos, curves, sampler, count=9)
    assert a.sample_rows() == b.sample_rows()
    assert a.summary["count"] == 9


def test_sweep_with_no_curves_reports_failures_only():
    # No curve anywhere means no boundary data can round-trip; distances
    # are unbounded and the sweep still runs on explicit ranges.
    eos = EosSpec(gamma=5.0 / 3.0, c_light=1.0)
    p_max = eos.pressure_of_density(eos.rho_valid_max)
    curves = scan_components(eos, LogGrid(2.0 * p_max, 20.0 * p_max, 4))
    sampler = SweepSampler(
        kind="random", seed=5, r_range=(5.0, 10.0), compactness_range=(0.05, 0.3)
    )
    report = ae_failure_sweep(eos, curves, sampler, count=4)
    assert "case11" not in report.summary["cases"]
    assert all(rec["distance"] == math.inf for rec in report.samples)
    assert all(rec["component"] is None for rec in report.samples)


def test_sweep_default_ranges_require_curves():
    eos = EosSpec(gamma=5.0 / 3.0, c_light=1.0)
    with pytest.raises(ValueError):
        ae_failure_sweep(eos, [], SweepSampler(seed=0), count=2)


def test_sampler_kind_validated():
    with pytest.raises(ValueError):
        SweepSampler(kind="sobol")


def test_curve_export_rows(rel_gamma53_curves):
    eos, curves = rel_gamma53_curves
    rows = curves[0].as_rows()
    assert len(rows) == len(curves[0].points)
    for p, r, m, x in rows[:: max(1, len(rows) // 5)]:
        assert x == pytest.approx(2.0 * m / (eos.c_light**2 * r), rel=1e-12)
    summary = curves[0].describe()
    assert summary["j"] == 0 and summary["n_points"] == len(rows)
