"""Matching curves in boundary-data space and the failure-sweep experiment.

A forward shot from central pressure P_c deposits a point (R, M) in the
admissible set; sweeping P_c over the interval where the equation of state
is usable traces out one curve per connected component of that interval.
Boundary data on a curve reproduces its central pressure under an inward
shot (Case 11); boundary data off every curve lands in one of the failure
cases.  This module builds the curves, measures scaled distance to them,
and runs the sweep that checks "off-curve implies failure" sample by
sample.

Curve points are stored in physical units; distances are always taken in
per-curve scaled coordinates (R / R_ref, M / M_ref) with the reference
values set to the curve medians, so curves with very different absolute
scales are treated uniformly.

The scan's forward shots come in batches of independent shots: the grid,
then each planned round of the chord refinement (_refine_sagitta), which
shoots the midpoints a round's verdicts are predicted to need before it
draws them.  A batch of LANES_MIN or more runs as lockstep lanes
(tov.shoot_from_centers), whose cost per step barely grows with the lane
count; a smaller batch runs shot by shot, as the endpoint bisection and
the on-curve sampler always do.  The sweep's inward shots are one batch:
with LANES_MIN or more samples each shot's one solve runs as a lane
(tov.shoot_from_boundaries).  The choice depends on the batch size
alone, and either way a shot gives the same outcome to roundoff.
Distances to a curve are one array expression over its segments, bit for
bit the segment-by-segment result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    EosValidityError,
    ShootFailureError,
    StellarMatchError,
)
from .reports import canonical_json, sanitize
from .rng import Pcg64
from .tov import (
    CASE11,
    LABEL_EOS_VALIDITY,
    ShootConfig,
    SurfaceData,
    admissible,
    shoot_from_boundaries,
    shoot_from_boundary,
    shoot_from_center,
    shoot_from_centers,
)

# Endpoint marker for a component that runs into the scan range boundary.
GRID_EDGE = "grid-edge"

# Relative tolerance (in P_c) for component-endpoint bisection.
ENDPOINT_REL_TOL = 1e-4
# Target sagitta (scaled chord deviation) for adaptive curve refinement.
# Must sit below the sweep's near-curve threshold so that points on the
# true curve are also near the stored polyline.
SAGITTA_TOL = 3e-5
# Refinement levels: a chord is halved at most this many times.
MAX_REFINE_DEPTH = 6
# Batches of at least this many forward shots (tov.shoot_from_centers) or
# inward shots (tov.shoot_from_boundaries) run as lockstep lanes, smaller
# ones shot by shot.  The lanes' cost per step is nearly flat in the lane
# count; on a 2-core host 16 lanes cost about 11-15 scalar shots for a
# pure polytrope (forward), 18 inward ones, and about 29 with the
# lambda-EOS table, whose batches in a `match` run stay below 16.  A
# match-rel53 command shoots batches of 17 and 256 forward and 40 inward
# shots, so any value up to 17 runs it the same way.
LANES_MIN = 16
# Scaled distance below which a sample counts as "on a curve".
NEAR_DELTA_DEFAULT = 1e-4
# Samples drawn by a failure sweep unless told otherwise.
SWEEP_COUNT_DEFAULT = 100
# Sampling plans understood by SweepSampler.
SAMPLER_KINDS = ("random", "grid", "on-curve")


@dataclass(frozen=True)
class LogGrid:
    """Logarithmic central-pressure grid for component scanning.

    Requires at least two points per decade so that no component narrower
    than half a decade can be stepped over silently.
    """

    p_lo: float
    p_hi: float
    per_decade: float = 8.0

    def __post_init__(self):
        if not (0.0 < self.p_lo < self.p_hi):
            raise ValueError("log grid needs 0 < p_lo < p_hi")
        if self.per_decade < 2.0:
            raise ValueError("log grid needs at least 2 points per decade")

    def values(self):
        decades = math.log10(self.p_hi / self.p_lo)
        n = int(math.ceil(decades * self.per_decade)) + 1
        return np.geomspace(self.p_lo, self.p_hi, max(n, 2))


def _median(values):
    """np.median of finite values, bit for bit, without np.median's NaN
    check, whose first call imports numpy.ma (about 17 ms)."""
    v = np.sort(values)
    k = v.size // 2
    return float(v[k]) if v.size % 2 else float((v[k - 1] + v[k]) / 2)


@dataclass(frozen=True)
class MatchingCurvePoint:
    """One forward-shot outcome on a matching curve."""

    p_center: float
    radius: float
    mass: float
    compactness: float


@dataclass
class MatchingCurve:
    """Connected component of usable central pressures with its (R, M) trace.

    ``p_lo``/``p_hi`` are the outermost central pressures verified to
    succeed; ``lower_label``/``upper_label`` say why the component ends
    there (a shot-failure label, or ``grid-edge`` at the scan boundary).
    ``lower_bracket``/``upper_bracket`` hold the final (failing, succeeding)
    pressure pairs from endpoint bisection, when a failing neighbor exists.
    """

    j: int
    points: list
    p_lo: float
    p_hi: float
    lower_label: str = GRID_EDGE
    upper_label: str = GRID_EDGE
    lower_bracket: tuple = None
    upper_bracket: tuple = None

    def __post_init__(self):
        if not self.points:
            raise ValueError("a matching curve needs at least one point")
        self.points = sorted(self.points, key=lambda pt: pt.p_center)

    @property
    def pressures(self):
        return np.array([pt.p_center for pt in self.points])

    @property
    def radii(self):
        return np.array([pt.radius for pt in self.points])

    @property
    def masses(self):
        return np.array([pt.mass for pt in self.points])

    @property
    def r_ref(self):
        return _median(self.radii)

    @property
    def m_ref(self):
        return _median(self.masses)

    def scaled_polyline(self):
        """(n, 2) vertex array in this curve's scaled coordinates."""
        return np.column_stack((self.radii / self.r_ref, self.masses / self.m_ref))

    def as_rows(self):
        """Rows (p_center, radius, mass, compactness) for export."""
        return [(pt.p_center, pt.radius, pt.mass, pt.compactness) for pt in self.points]

    def describe(self):
        return {
            "j": self.j,
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "lower_label": self.lower_label,
            "upper_label": self.upper_label,
            "n_points": len(self.points),
            "r_ref": self.r_ref,
            "m_ref": self.m_ref,
        }


def _curve_point(p_center, surface):
    return MatchingCurvePoint(
        p_center=float(p_center),
        radius=surface.radius,
        mass=surface.mass,
        compactness=surface.compactness,
    )


def _forward_point(eos, p_center, config):
    """Forward shot wrapped as data: (point, None) or (None, failure label)."""
    try:
        surface, _ = shoot_from_center(eos, p_center, config=config)
    except ShootFailureError as exc:
        return None, exc.label
    except EosValidityError:
        return None, LABEL_EOS_VALIDITY
    return _curve_point(p_center, surface), None


def _forward_points(eos, ps, config):
    """_forward_point for each central pressure of a batch, in order.

    The shots are independent, so a batch of LANES_MIN or more runs as
    lanes of one lockstep solve; a smaller one, where lanes cost more than
    they save, runs shot by shot."""
    if len(ps) < LANES_MIN:
        return [_forward_point(eos, p, config) for p in ps]
    return [
        (_curve_point(p, outcome), None)
        if isinstance(outcome, SurfaceData)
        else (None, outcome)
        for p, outcome in zip(ps, shoot_from_centers(eos, ps, config))
    ]


def _bisect_endpoint(eos, p_fail, p_succ, fail_label, config):
    """Shrink a (failing, succeeding) central-pressure bracket to relative
    width ENDPOINT_REL_TOL.  Successful midpoints become curve points;
    the label of the last failing midpoint is kept."""
    new_points = []
    while abs(math.log(p_fail / p_succ)) > ENDPOINT_REL_TOL:
        p_mid = math.sqrt(p_fail * p_succ)
        point, label = _forward_point(eos, p_mid, config)
        if point is not None:
            p_succ = p_mid
            new_points.append(point)
        else:
            p_fail = p_mid
            fail_label = label
    return p_fail, p_succ, fail_label, new_points


def _refine_sagitta(eos, points_by_p, refs, config, max_depth):
    """Insert log-midpoint shots until every chord of the stored polyline
    sits within SAGITTA_TOL of the true curve (scaled coordinates), halving
    each chord at most max_depth times.

    A chord's verdict depends only on its end points and its midpoint: a
    gap (the midpoint's scaled distance from the chord) above SAGITTA_TOL
    keeps the midpoint and splits the chord in two.  A failing midpoint
    inside a component would contradict the interval assumption;
    refinement just stops on that chord and keeps it.

    The midpoints are shot in planned rounds.  Each pending chord carries a
    predicted gap: a child chord its parent's measured gap, a grid chord
    the larger turn of its end vertices (_grid_gaps).  A gap falls about 4x
    per halving, so a round plans each pending chord's midpoint and, while
    the predicted gap / 4 exceeds SAGITTA_TOL, both halves' midpoints too,
    with gap / 4, down to max_depth.  A round's planned midpoints are one
    batch (_forward_points); the verdicts are then drawn level by level
    from the shot outcomes, and a chord whose midpoint was not planned
    waits for the next round.  Shots under a chord that passes are
    dropped.  A shot's outcome does not depend on its batch mates, so the
    kept vertices are those of shooting one level at a time.
    """
    r_ref, m_ref = refs

    def scaled(pt):
        return np.array([pt.radius / r_ref, pt.mass / m_ref])

    ps = sorted(points_by_p)
    gaps = _grid_gaps([scaled(points_by_p[p]) for p in ps])
    # chords as (p1, p2, depth, predicted gap or None)
    pending = [(p1, p2, 0, gap) for p1, p2, gap in zip(ps[:-1], ps[1:], gaps)]
    shot = {}
    while pending:
        planned = [p for chord in pending
                   for p in _planned_midpoints(*chord, max_depth)]
        shot.update(zip(planned, _forward_points(eos, planned, config)))
        level, pending = pending, []
        while level:
            next_level = []
            for p1, p2, depth, gap in level:
                if depth >= max_depth:
                    continue
                p_mid = math.sqrt(p1 * p2)
                if p_mid not in shot:
                    pending.append((p1, p2, depth, gap))
                    continue
                point = shot[p_mid][0]
                if point is None:
                    continue
                gap = _segment_distance(
                    scaled(point), scaled(points_by_p[p1]),
                    scaled(points_by_p[p2]))
                if gap <= SAGITTA_TOL:
                    continue
                points_by_p[p_mid] = point
                next_level += [(p1, p_mid, depth + 1, gap),
                               (p_mid, p2, depth + 1, gap)]
            level = next_level


def _grid_gaps(vertices):
    """The predicted gap of each chord between consecutive vertices: the
    larger turn of its end vertices, a vertex's turn being its distance
    from the chord through its two neighbours.  None for every chord of
    fewer than 3 vertices."""
    turns = [_segment_distance(v, a, b)
             for a, v, b in zip(vertices, vertices[1:], vertices[2:])]
    if not turns:
        return [None] * (len(vertices) - 1)
    # an end vertex has no turn; the other end of its chord does
    turns = turns[:1] + turns + turns[-1:]
    return [max(a, b) for a, b in zip(turns, turns[1:])]


def _planned_midpoints(p1, p2, depth, gap, max_depth):
    """The midpoints one round shoots for a pending chord: its own, and
    while its predicted gap / 4 exceeds SAGITTA_TOL, those its halves are
    predicted to need, with gap / 4, down to max_depth."""
    if depth >= max_depth:
        return []
    p_mid = math.sqrt(p1 * p2)
    mids = [p_mid]
    if gap is not None and gap / 4.0 > SAGITTA_TOL:
        for half in ((p1, p_mid), (p_mid, p2)):
            mids += _planned_midpoints(*half, depth + 1, gap / 4.0,
                                       max_depth)
    return mids


def scan_components(eos, grid, config=None):
    """Trace the matching curves of one equation of state.

    Walks the central-pressure grid, groups consecutive successful forward
    shots into components, bisects each component boundary against its
    failing neighbor, and refines the sampling wherever the (R, M) trace
    bends faster than the stored chords can follow.  Grid points where the
    shot fails are recorded through the endpoint labels; no successes at
    all yields an empty list.  The grid and each planned round of the
    refinement (_refine_sagitta) are shot as batches (_forward_points);
    the endpoint bisection, one shot at a time.
    """
    if not isinstance(grid, LogGrid):
        grid = LogGrid(*grid)
    config = config or ShootConfig()
    values = grid.values()
    outcomes = _forward_points(eos, values, config)

    curves = []
    i = 0
    while i < len(values):
        if outcomes[i][0] is None:
            i += 1
            continue
        start = i
        while i < len(values) and outcomes[i][0] is not None:
            i += 1
        end = i - 1  # inclusive index of last success in this run

        points_by_p = {
            float(values[k]): outcomes[k][0] for k in range(start, end + 1)
        }
        p_lo, p_hi = float(values[start]), float(values[end])
        lower_label = upper_label = GRID_EDGE
        lower_bracket = upper_bracket = None

        if start > 0:
            p_fail, p_succ, lower_label, extra = _bisect_endpoint(
                eos, float(values[start - 1]), p_lo, outcomes[start - 1][1], config
            )
            for pt in extra:
                points_by_p[pt.p_center] = pt
            p_lo, lower_bracket = p_succ, (p_fail, p_succ)
        if end + 1 < len(values):
            p_fail, p_succ, upper_label, extra = _bisect_endpoint(
                eos, float(values[end + 1]), p_hi, outcomes[end + 1][1], config
            )
            for pt in extra:
                points_by_p[pt.p_center] = pt
            p_hi, upper_bracket = p_succ, (p_fail, p_succ)

        base = list(points_by_p.values())
        refs = (_median([pt.radius for pt in base]), _median([pt.mass for pt in base]))
        _refine_sagitta(eos, points_by_p, refs, config, MAX_REFINE_DEPTH)

        curves.append(
            MatchingCurve(
                j=len(curves),
                points=list(points_by_p.values()),
                p_lo=p_lo,
                p_hi=p_hi,
                lower_label=lower_label,
                upper_label=upper_label,
                lower_bracket=lower_bracket,
                upper_bracket=upper_bracket,
            )
        )
    return curves


def _polyline_distance(q, poly):
    """Distance from point q to the polyline through the (n, 2) vertices
    poly in the plane, as one array expression over its segments.

    The dot products are stacked matmuls, (k, 1, 2) @ (k, 2, 1), which
    round as the 1-D dot product of one segment's vectors does (elementwise
    products summed by hand can differ in the last bit).  A zero-length
    segment, like a single vertex, gives the distance to its end point: its
    projection is an exact zero, divided by 1 instead of its length."""
    if len(poly) == 1:
        a, d = poly, np.zeros_like(poly)
    else:
        a, d = poly[:-1], poly[1:] - poly[:-1]
    length_sq = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    along = ((q - a)[:, None, :] @ d[:, :, None])[:, 0, 0]
    t = np.clip(along / np.where(length_sq == 0.0, 1.0, length_sq), 0.0, 1.0)
    return float(np.min(np.hypot(*(q - (a + t[:, None] * d)).T)))


def _segment_distance(q, a, b):
    """Distance from point q to segment [a, b] in the plane."""
    return _polyline_distance(q, np.array([a, b]))


def distance_to_curves(radius, mass, curves):
    """Scaled distance from boundary data (R, M) to the nearest curve.

    Each curve is measured in its own scaled coordinates (R / R_ref,
    M / M_ref).  Returns (j_star, distance) for the closest curve over all
    piecewise-linear segments, each curve's segments measured as one array
    expression.  An empty curve list has no distance and raises ValueError.
    """
    if not curves:
        raise ValueError("distance is undefined for an empty curve list")
    best = None
    for curve in curves:
        # scaled_polyline, with each median taken once
        r_ref, m_ref = curve.r_ref, curve.m_ref
        poly = np.column_stack((curve.radii / r_ref, curve.masses / m_ref))
        dist = _polyline_distance(np.array([radius / r_ref, mass / m_ref]),
                                  poly)
        if best is None or dist < best[1]:
            best = (curve.j, dist)
    return best


@dataclass(frozen=True)
class SweepSampler:
    """Boundary-data sampling plan for the failure sweep.

    kind:
      "random"   uniform draws over a rectangle, seeded.
      "grid"     row-major lattice over the same rectangle, no randomness.
      "on-curve" fresh central pressures inside curve intervals; each draw
                 is forward-shot so the sample sits on the true curve, not
                 on the stored polyline.

    The rectangle is (R, 2M / (c^2 R)) for a relativistic equation of
    state and (R, M) in the degenerate-light-speed case, where compactness
    collapses to zero.  Ranges default to a padded bounding box of the
    curve points.  ``min_distance`` switches on rejection sampling: draws
    closer than that scaled distance to any curve are discarded.
    """

    kind: str = "random"
    seed: int = 0
    r_range: tuple = None
    compactness_range: tuple = None
    mass_range: tuple = None
    min_distance: float = None
    on_curve_log_margin: float = 0.05

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError("sampler kind must be random, grid, or on-curve")

    def describe(self):
        return {
            "kind": self.kind,
            "seed": self.seed,
            "r_range": self.r_range,
            "compactness_range": self.compactness_range,
            "mass_range": self.mass_range,
            "min_distance": self.min_distance,
            "on_curve_log_margin": self.on_curve_log_margin,
        }


def _rectangle(eos, curves, sampler):
    """Resolve sampling ranges, defaulting to a padded curve bounding box."""
    r_range = sampler.r_range
    if r_range is None:
        if not curves:
            raise ValueError("sampler needs explicit r_range when no curves exist")
        radii = np.concatenate([c.radii for c in curves])
        r_range = (0.5 * float(radii.min()), 1.5 * float(radii.max()))
    if eos.nonrelativistic:
        m_range = sampler.mass_range
        if m_range is None:
            if not curves:
                raise ValueError(
                    "sampler needs explicit mass_range when no curves exist"
                )
            masses = np.concatenate([c.masses for c in curves])
            m_range = (0.5 * float(masses.min()), 1.5 * float(masses.max()))
        return r_range, m_range, "mass"
    x_range = sampler.compactness_range
    if x_range is None:
        if not curves:
            raise ValueError(
                "sampler needs explicit compactness_range when no curves exist"
            )
        comp = np.array([pt.compactness for c in curves for pt in c.points])
        x_range = (0.5 * float(comp.min()), min(0.9, 1.5 * float(comp.max())))
    if not (0.0 <= x_range[0] < x_range[1] < 1.0):
        raise ValueError("compactness range must sit inside [0, 1)")
    return r_range, x_range, "compactness"


def _boundary_from_coords(eos, r, x, mode):
    if mode == "mass":
        return r, x
    return r, 0.5 * x * eos.c_light**2 * r


def _safe_distance(radius, mass, curves):
    if not curves:
        return None, math.inf
    return distance_to_curves(radius, mass, curves)


def _draw_rect_samples(eos, curves, sampler, count):
    """Rectangle samples as (R, M, j, distance) with optional rejection."""
    r_range, x_range, mode = _rectangle(eos, curves, sampler)
    out = []
    if sampler.kind == "grid":
        n = int(math.ceil(math.sqrt(count)))
        rs = np.linspace(*r_range, n)
        xs = np.linspace(*x_range, n)
        coords = [(r, x) for x in xs for r in rs]
        for r, x in coords:
            radius, mass = _boundary_from_coords(eos, r, x, mode)
            j, dist = _safe_distance(radius, mass, curves)
            if sampler.min_distance is not None and dist <= sampler.min_distance:
                continue
            out.append((radius, mass, j, dist))
            if len(out) == count:
                return out
        raise StellarMatchError(
            "grid sampler produced %d of %d samples after rejection"
            % (len(out), count)
        )
    rng = Pcg64(sampler.seed)
    attempts = 0
    max_attempts = max(200 * count, 10_000)
    while len(out) < count:
        if attempts >= max_attempts:
            raise StellarMatchError(
                "rejection sampling exhausted %d attempts" % max_attempts
            )
        attempts += 1
        r = rng.uniform(*r_range)
        x = rng.uniform(*x_range)
        radius, mass = _boundary_from_coords(eos, r, x, mode)
        j, dist = _safe_distance(radius, mass, curves)
        if sampler.min_distance is not None and dist <= sampler.min_distance:
            continue
        out.append((radius, mass, j, dist))
    return out


def _draw_on_curve_samples(eos, curves, sampler, count, config):
    """Fresh forward shots at central pressures inside curve intervals."""
    if not curves:
        raise ValueError("on-curve sampling needs a non-empty curve list")
    rng = Pcg64(sampler.seed)
    out = []
    margin = sampler.on_curve_log_margin
    while len(out) < count:
        curve = curves[rng.integers(len(curves))]
        lo, hi = math.log(curve.p_lo), math.log(curve.p_hi)
        width = hi - lo
        p = math.exp(rng.uniform(lo + margin * width, hi - margin * width))
        point, label = _forward_point(eos, p, config)
        if point is None:
            # Inside a verified component; record as data rather than hide.
            out.append((math.nan, math.nan, None, math.inf))
            continue
        j, dist = _safe_distance(point.radius, point.mass, curves)
        out.append((point.radius, point.mass, j, dist))
    return out


def _sample_record(outcome):
    """The record of an inward shot's outcome: its ShootClassification, or
    the StellarMatchError it raised."""
    if isinstance(outcome, AdmissibilityError):
        return {"case": None, "exit": "inadmissible"}
    if isinstance(outcome, EosValidityError):
        return {"case": None, "exit": LABEL_EOS_VALIDITY}
    if isinstance(outcome, StellarMatchError):
        return {"case": None, "exit": "error:%s" % type(outcome).__name__}
    rec = {"case": outcome.case, "exit": outcome.exit}
    if outcome.case == CASE11:
        rec["p_center"] = outcome.p_center
    return rec


def _classify_sample(eos, radius, mass, config):
    """Inward classification wrapped as data."""
    if math.isnan(radius):
        return {"case": None, "exit": "forward_shot_failed"}
    try:
        cls, _ = shoot_from_boundary(eos, radius, mass, config=config)
    except StellarMatchError as exc:
        return _sample_record(exc)
    return _sample_record(cls)


def _classify_samples(eos, coords, config):
    """_classify_sample for each (R, M, j, distance) sample, in order.

    The inward shots are independent, so when LANES_MIN or more samples
    can be shot, they run as lanes of one lockstep solve
    (tov.shoot_from_boundaries); fewer run shot by shot."""
    shots = [k for k, (radius, _, _, _) in enumerate(coords)
             if not math.isnan(radius)]
    if len(shots) < LANES_MIN:
        return [_classify_sample(eos, radius, mass, config)
                for radius, mass, _, _ in coords]
    outcomes = dict(zip(shots, shoot_from_boundaries(
        eos, [coords[k][0] for k in shots], [coords[k][1] for k in shots],
        config)))
    return [_sample_record(outcomes[k]) if k in outcomes
            else _classify_sample(eos, radius, mass, config)
            for k, (radius, mass, _, _) in enumerate(coords)]


@dataclass
class SweepReport:
    """Outcome of a failure sweep: per-sample records plus a canonical
    summary suitable for byte-identical comparison."""

    samples: list
    summary: dict
    near_delta: float = NEAR_DELTA_DEFAULT

    def summary_json(self):
        return canonical_json(self.summary)

    def sample_rows(self):
        """JSON-ready per-sample records in index order."""
        return [sanitize(rec) for rec in self.samples]


def ae_failure_sweep(
    eos,
    curves,
    sampler=None,
    count=SWEEP_COUNT_DEFAULT,
    near_delta=NEAR_DELTA_DEFAULT,
    config=None,
):
    """Sample boundary data and test "Case 11 only happens on a curve".

    Draws ``count`` admissible samples per the sampler plan, classifies
    each with an inward shot, and reports the Case 11 fraction among
    samples farther than ``near_delta`` (scaled) from every curve.  All
    draws are made first, from the seeded generator, and each sample is
    then classified on its own.  The report is therefore byte-identical
    for a fixed seed.  For the random and on-curve plans the first k
    records equal those of a k-sample sweep exactly when both sweeps take
    the same path, both shot by shot or both as lanes (LANES_MIN or more
    samples to shoot); across LANES_MIN they still agree in every field
    but ``p_center``, which the two paths compute to roundoff.
    """
    sampler = sampler or SweepSampler()
    config = config or ShootConfig()

    if sampler.kind == "on-curve":
        coords = _draw_on_curve_samples(eos, curves, sampler, count, config)
    else:
        coords = _draw_rect_samples(eos, curves, sampler, count)

    for radius, mass, _, _ in coords:
        if not math.isnan(radius) and not admissible(radius, mass, eos.c_light):
            raise StellarMatchError("sampler produced inadmissible boundary data")

    samples = []
    records = _classify_samples(eos, coords, config)
    for idx, ((radius, mass, j, dist), record) in enumerate(zip(coords, records)):
        rec = {
            "index": idx,
            "radius": radius,
            "mass": mass,
            "component": j,
            "distance": dist,
        }
        rec.update(record)
        samples.append(rec)

    case_counts = {}
    exit_counts = {}
    for rec in samples:
        key = rec["case"] if rec["case"] is not None else "none"
        case_counts[key] = case_counts.get(key, 0) + 1
        exit_counts[rec["exit"]] = exit_counts.get(rec["exit"], 0) + 1

    far = [rec for rec in samples if rec["distance"] > near_delta]
    far_case11 = sum(1 for rec in far if rec["case"] == CASE11)
    case11_all = [rec for rec in samples if rec["case"] == CASE11]
    summary = {
        "count": len(samples),
        "cases": case_counts,
        "exits": exit_counts,
        "near_delta": near_delta,
        "n_far": len(far),
        "far_case11_count": far_case11,
        "far_case11_fraction": (far_case11 / len(far)) if far else 0.0,
        "case11_within_delta": all(
            rec["distance"] <= near_delta for rec in case11_all
        ),
        "sampler": sampler.describe(),
        "eos": eos.describe(),
        "curves": [c.describe() for c in curves],
    }
    return SweepReport(samples=samples, summary=summary, near_delta=near_delta)
