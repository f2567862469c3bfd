import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from sdfgrow.accel import (
    _CUT,
    IntersectionCache,
    _classify_circle,
    ensure_cache,
    grid_points_uncovered,
)
from sdfgrow.core import (
    TOL_GEOM,
    TOL_UNIQUE,
    DegenerateGeometryError,
    SampleSet,
)
from sdfgrow.geom import (
    IntersectionCircle,
    circle_triple_points,
    points_uncovered,
    sphere_pair_contact_or_circle,
)
from sdfgrow.interp import (
    MODE_REFINE,
    MODE_REPAIR,
    _checked_cache,
    _containment,
    _scope,
    validity_with_candidate,
)
from sdfgrow.validity import check_validity


def make_set(rows, **kw):
    """rows: list of ((coords...), value)."""
    pts = [r[0] for r in rows]
    vals = [r[1] for r in rows]
    return SampleSet(pts, vals, **kw)


def random_set(rng, dim, max_n=8, radius_lo=0.05, radius_hi=0.6,
               signed=True):
    n = int(rng.integers(1, max_n + 1))
    pts = rng.uniform(-0.85, 0.85, (n, dim))
    mags = rng.uniform(radius_lo, radius_hi, n)
    if signed:
        vals = mags * rng.choice([-1.0, 1.0], n)
    else:
        vals = mags
    return SampleSet(pts, vals)


def random_valid_set(rng, dim, max_n=8, max_tries=200):
    """Rejection-sample a valid set; shrink radii until it passes."""
    for _ in range(max_tries):
        s = random_set(rng, dim, max_n=max_n, radius_hi=0.35)
        if check_validity(s).valid:
            return s
        # shrinking magnitudes fixes coverage violations quickly
        for scale in (0.6, 0.35, 0.2):
            s2 = SampleSet(s.points, s.values * scale)
            if check_validity(s2).valid:
                return s2
    raise RuntimeError("could not sample a valid set")


def sampled_sdf_set(rng, dim, n_points=8):
    """Samples of a true SDF (disjoint circles/spheres far enough apart that
    the min of their fields is exact): always a valid set by construction."""
    k = int(rng.integers(1, 4))
    centers = []
    radii = []
    for _ in range(40):
        if len(centers) == k:
            break
        c = rng.uniform(-0.6, 0.6, dim)
        r = float(rng.uniform(0.1, 0.35))
        if all(np.linalg.norm(c - c2) >= r + r2 + max(r, r2) + 0.05
               for c2, r2 in zip(centers, radii)):
            centers.append(c)
            radii.append(r)
    pts = rng.uniform(-0.9, 0.9, (n_points, dim))
    d = np.min([np.linalg.norm(pts - c, axis=1) - r
                for c, r in zip(centers, radii)], axis=0)
    return SampleSet(pts, d)


# ---------------------------------------------------------------------------
# scalar geometry: independent references for the batched routines of
# sdfgrow.geom and the exhaustive enumerations below
# ---------------------------------------------------------------------------

def circle_pair_intersect_2d(c1, r1, c2, r2, tol_unique=TOL_UNIQUE,
                             tol_geom=TOL_GEOM):
    """Intersection points of two circles in the plane.

    Returns 0, 1 (tangency, detected within tol_geom) or 2 points.  Raises
    DegenerateGeometryError for coincident centers with equal radii (the
    intersection would be the whole circle).
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    delta = c2 - c1
    d = float(np.linalg.norm(delta))
    if d <= tol_unique:
        if abs(r1 - r2) <= tol_geom:
            raise DegenerateGeometryError(
                "coincident circles intersect everywhere")
        return []
    u = delta / d
    ext = d - (r1 + r2)          # > 0: disjoint
    inn = d - abs(r1 - r2)       # < 0: nested
    if abs(ext) <= tol_geom or abs(inn) <= tol_geom:
        # external or internal tangency: single shared point on the line
        a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
        return [c1 + a * u]
    if ext > 0.0 or inn < 0.0:
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    if h_sq <= 0.0:
        return [c1 + a * u]
    h = np.sqrt(h_sq)
    mid = c1 + a * u
    perp = np.array([-u[1], u[0]])
    return [mid + h * perp, mid - h * perp]


def sphere_triple_intersect_3d(c1, r1, c2, r2, c3, r3, tol_geom=TOL_GEOM):
    """Common points of three sphere surfaces via trilateration.

    Returns 0, 1 (double root within tolerance) or 2 points.  Raises
    DegenerateGeometryError when the three centers are collinear.
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    c3 = np.asarray(c3, dtype=np.float64)
    ex = c2 - c1
    d = float(np.linalg.norm(ex))
    if d <= tol_geom:
        raise DegenerateGeometryError("first two centers coincide")
    ex = ex / d
    to3 = c3 - c1
    i = float(np.dot(ex, to3))
    ey = to3 - i * ex
    j = float(np.linalg.norm(ey))
    if j <= tol_geom:
        raise DegenerateGeometryError("collinear sphere centers")
    ey = ey / j
    ez = np.cross(ex, ey)
    x = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    y = (r1 * r1 - r3 * r3 + i * i + j * j) / (2.0 * j) - (i / j) * x
    z_sq = r1 * r1 - x * x - y * y
    # tolerance in radius space: perturbing a radius by tol moves z^2 by ~2*r*tol
    tol_z = 2.0 * max(r1, r2, r3, 1.0) * tol_geom
    if z_sq < -tol_z:
        return []
    base = c1 + x * ex + y * ey
    if z_sq <= tol_z:
        return [base]
    z = np.sqrt(z_sq)
    return [base + z * ez, base - z * ez]


def circle_reference_point_scalar(circle: IntersectionCircle):
    """A deterministic point on the circle, used when the closest/farthest
    direction is degenerate.  Picks the lexicographically smaller of the two
    unit directions spanned by the first canonical axis not parallel to the
    circle normal."""
    mu = circle.normal
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(mu)))] = 1.0
    e = np.cross(axis, mu)
    e = e / np.linalg.norm(e)
    if tuple(-e) < tuple(e):
        e = -e
    return circle.center + circle.radius * e


def points_and_hosts(cache):
    """(point, host tuple) of every alive cached point, in row order."""
    return [(cache._pt.xyz[r],
             tuple(h for h in cache._pt.hosts[r].tolist() if h >= 0))
            for r in cache.alive_rows()]


def exhaustive_uncovered_pairs_2d(sample_set):
    """Independent O(n^2) enumeration of uncovered pairwise intersection
    points: plain loops, no raster, no grid."""
    out = set()
    n = len(sample_set)
    pts = sample_set.points
    radii = sample_set.radii
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pts[i] - pts[j]) <= sample_set.tol_unique:
                continue
            for q in circle_pair_intersect_2d(pts[i], radii[i], pts[j],
                                              radii[j]):
                d = np.linalg.norm(pts - q, axis=1)
                if not np.any(d < radii - sample_set.tol_geom):
                    out.add((round(q[0], 7), round(q[1], 7), i, j))
    return out


def exhaustive_uncovered_triples_3d(sample_set):
    """Independent O(n^3) triple-point enumeration."""
    out = set()
    n = len(sample_set)
    pts = sample_set.points
    radii = sample_set.radii
    for i, j, k in itertools.combinations(range(n), 3):
        try:
            got = sphere_triple_intersect_3d(pts[i], radii[i], pts[j],
                                             radii[j], pts[k], radii[k])
        except Exception:
            continue
        for q in got:
            d = np.linalg.norm(pts - q, axis=1)
            if not np.any(d < radii - sample_set.tol_geom):
                out.add((round(q[0], 7), round(q[1], 7), round(q[2], 7),
                         i, j, k))
    return out


def raster_nominations_reference(pix, sph, n, dim):
    """Per-pixel-group nomination from raw (pixel, sphere) marks, the loop
    that accel._raster_nominations replaced: (set of pairs, set of triples),
    each tuple sorted."""
    triples = set()
    if pix.size == 0:
        return set(), triples
    order = np.argsort(pix, kind="stable")
    pix = pix[order]
    sph = sph[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(pix))[0] + 1, [pix.size]])
    pair_keys = []
    for a, b in zip(starts[:-1], starts[1:]):
        group = np.unique(sph[a:b])
        if group.size >= 2:
            iu, jv = np.triu_indices(group.size, 1)
            pair_keys.append(group[iu].astype(np.int64) * n + group[jv])
        if dim == 3 and group.size >= 3:
            for t in itertools.combinations(group.tolist(), 3):
                triples.add(t)
    pairs = set()
    if pair_keys:
        keys = np.unique(np.concatenate(pair_keys))
        pairs = {(int(k // n), int(k % n)) for k in keys}
    return pairs, triples


# ---------------------------------------------------------------------------
# list-of-objects grow-to ranking, the code that interp._ranked_radii and
# interp.radius_scores replaced; the cache now returns host rows as arrays,
# so the two cache reads index them
# ---------------------------------------------------------------------------

@dataclass
class GrowToCandidate:
    point: np.ndarray
    kind: str                      # self | tangent | intersection | circle-extreme
    hosts: tuple                   # ((index, SignedSample), ...)

    @property
    def is_tangency(self):
        return self.kind == "tangent"


def grow_to_points_reference(p, sample_set: SampleSet,
                             cache: IntersectionCache = None,
                             mode=MODE_REFINE, indices=None, max_dist=None):
    p = np.asarray(p, dtype=np.float64)
    cache = ensure_cache(sample_set, cache)
    scope = _scope(sample_set, indices)
    tol = sample_set.tol_geom
    out = [GrowToCandidate(p.copy(), "self", ())]
    if len(sample_set) == 0:
        return out

    pts = sample_set.points[scope]
    radii = sample_set.radii[scope]
    delta = p[None, :] - pts
    dist = np.linalg.norm(delta, axis=1)
    ok = dist > sample_set.tol_unique

    # tangent points, both sides of every sphere
    with np.errstate(invalid="ignore", divide="ignore"):
        dirs = delta / dist[:, None]
    cand_pts = []
    cand_host = []
    for side in (1.0, -1.0):
        qs = pts + side * radii[:, None] * dirs
        qd = np.where(ok,
                      np.abs(dist - radii) if side > 0 else dist + radii,
                      np.inf)
        sel = ok & ((qd <= max_dist + tol) if max_dist is not None
                    else np.ones_like(ok))
        for row in np.nonzero(sel)[0]:
            cand_pts.append(qs[row])
            cand_host.append(int(scope[row]))
    if cand_pts:
        cand_pts = np.asarray(cand_pts)
        keep = points_uncovered(cand_pts, sample_set, indices=scope)
        for row in np.nonzero(keep)[0]:
            i = cand_host[row]
            out.append(GrowToCandidate(cand_pts[row], "tangent",
                                       ((i, sample_set[i]),)))

    # uncovered intersection points (cache invariant: already coverage-tested)
    point_hosts, upts = cache.points_array()
    if upts.shape[0]:
        ud = np.linalg.norm(upts - p[None, :], axis=1)
        sel = np.ones(upts.shape[0], dtype=bool)
        if max_dist is not None:
            sel = ud <= max_dist + tol
        for hs, row in zip(point_hosts[sel], np.nonzero(sel)[0]):
            hosts = tuple((h, sample_set[h]) for h in hs if h >= 0)
            out.append(GrowToCandidate(upts[row], "intersection", hosts))

    # closest/farthest points of uncovered circles (3D); a circle whose axis
    # carries p has no extreme points and contributes nothing here
    if sample_set.dim == 3:
        extreme_pts, dists, keys = cache.circle_extreme_candidates(
            p, mode == MODE_REPAIR, tol=tol, include_degenerate=False)
        if extreme_pts.shape[0]:
            sel = np.ones(extreme_pts.shape[0], dtype=bool)
            if max_dist is not None:
                sel = dists <= max_dist + tol
            extreme_pts = extreme_pts[sel]
            keys = [k for k, keep in zip(keys, sel) if keep]
            if extreme_pts.shape[0]:
                keep = points_uncovered(extreme_pts, sample_set,
                                        indices=scope)
                for row in np.nonzero(keep)[0]:
                    hosts = tuple((h, sample_set[h]) for h in keys[row])
                    out.append(GrowToCandidate(extreme_pts[row],
                                               "circle-extreme", hosts))
    return out


def _normals_agree(p, s, host_point, host_value, q):
    v_c = q - p
    n_c = np.linalg.norm(v_c)
    v_h = q - host_point
    n_h = np.linalg.norm(v_h)
    if n_c <= 0.0 or n_h <= 0.0:
        return False
    flip_c = -1.0 if s < 0 else 1.0
    flip_h = -1.0 if host_value < 0 else 1.0
    return flip_c * flip_h * float(np.dot(v_c, v_h)) > 0.0


def score_for_radius(p, s, candidate: GrowToCandidate, max_radius):
    p = np.asarray(p, dtype=np.float64)
    hosts = candidate.hosts
    agree = any(_normals_agree(p, s, h.point, h.value, candidate.point)
                for _, h in hosts)
    if candidate.is_tangency:
        type_score = 3.0 * max_radius if agree else 0.0
    elif candidate.kind == "self":
        type_score = 0.0
    else:
        type_score = 2.0 * max_radius if agree else 1.0 * max_radius
    sign_score = 2.0 if s < 0 else 1.0
    return sign_score * abs(s) + type_score


def ranked_radii_reference(p, sample_set, max_radius, cache, mode, scope):
    """(s, kind, point tuple) of every candidate row, best first, scored one
    candidate at a time and ordered by a tuple sort."""
    tol = sample_set.tol_geom
    required_sign, lower, ub_all, ub_by_sign = _containment(sample_set, p,
                                                            scope)
    allowed = (required_sign,) if required_sign is not None else (1.0, -1.0)
    reach = min(max_radius, ub_all,
                max(ub_by_sign[sg] for sg in allowed))
    candidates = grow_to_points_reference(p, sample_set, cache=cache,
                                          mode=mode, indices=scope,
                                          max_dist=reach)

    scored = []
    for cand in candidates:
        dist = float(np.linalg.norm(cand.point - p))
        for sg in allowed:
            s = sg * dist
            if dist <= tol and sg < 0:
                continue
            if dist < lower - tol:
                continue
            if dist > min(max_radius, ub_all, ub_by_sign[sg]) + tol:
                continue
            score = score_for_radius(p, s, cand, max_radius)
            scored.append((-score, dist, 0 if s < 0 else 1,
                           tuple(cand.point), s, cand))
    scored.sort(key=lambda t: t[:4])
    return [(s, cand.kind, tuple(cand.point))
            for _, _, _, _, s, cand in scored]


# ---------------------------------------------------------------------------
# the per-neighbour 3D insert loop that accel._insert_features_3d replaced;
# the circle table is now written through add_circles/drop_circles
# ---------------------------------------------------------------------------

def update_cache_on_insert_reference(cache, sample_set, new_index):
    tol = sample_set.tol_geom
    signs = sample_set.signs
    pts = sample_set.points
    radii = sample_set.radii
    p = pts[new_index]
    r = radii[new_index]
    cache.remove_points_in_ball(p, r, tol)
    neighbors = cache.grid.query_bbox(p - r, p + r)
    cache.grid.insert_balls(p, r)
    cache.n_synced = len(sample_set)

    def add_circle(circle, status):
        cache.add_circles(circle.center, [circle.radius], circle.normal,
                          [circle.hosts], [status], signs)

    # 3D: re-classify only the circles the new ball can reach
    swallowed, cut = cache.circles_touched_by_ball(p, r, tol)
    cache.drop_circles(swallowed)
    if cut.size:
        reach = cache._circ.radius[cut][:, None]
        centers = cache._circ.center[cut]
        near = cache.grid.query_bbox((centers - reach).min(axis=0),
                                     (centers + reach).max(axis=0))
        for row in cut:
            status = _classify_circle(cache.circle(row), sample_set, near)
            if status is None:
                cache.drop_circles(np.array([row]))
            else:
                cache._circ.status[row] = status

    # new pair features; host rows are sorted, the new index being largest
    new_pts, new_hosts = [], []
    for j in neighbors.tolist():
        contact, circle = sphere_pair_contact_or_circle(
            p, r, pts[j], radii[j], (new_index, j), sample_set.tol_unique,
            tol)
        if contact is not None:
            new_pts.append(contact[None, :])
            new_hosts.append((j, new_index, -1))
            continue
        if circle is None:
            continue
        status = _classify_circle(circle, sample_set, neighbors)
        if status is not None:
            add_circle(circle, status)
        got, ks, _ = circle_triple_points(p, r, pts[j], radii[j], circle,
                                          neighbors[neighbors != j],
                                          sample_set)
        new_pts.append(got)
        new_hosts.extend((min(j, k), max(j, k), new_index)
                         for k in ks.tolist())

    new_pts = np.vstack(new_pts) if new_pts else np.empty((0, 3))
    if new_pts.shape[0]:
        new_hosts = np.array(new_hosts, dtype=np.intp)
        # dedupe triples discovered through two different circles, keeping
        # the first: key = (hosts, point rounded to tol)
        keys = np.column_stack([new_hosts,
                                np.round(new_pts / tol).astype(np.int64)])
        first = {}
        for rr, k in enumerate(map(tuple, keys.tolist())):
            first.setdefault(k, rr)
        rows = list(first.values())
        new_pts = new_pts[rows]
        new_hosts = new_hosts[rows]
        keep = grid_points_uncovered(new_pts, sample_set, cache.grid,
                                     hosts=new_hosts)
        cache.add_points(new_pts[keep], new_hosts[keep], signs)
    c = cache._circ
    cache.resolve_cut_circles(np.flatnonzero(c.alive & (c.status == _CUT)))
    return cache


# ---------------------------------------------------------------------------
# the scalar minimum valid radius that interp.min_valid_radii replaced, with
# its scalar helpers
# ---------------------------------------------------------------------------

def min_valid_radius_reference(p, sample_set: SampleSet, lower_bound=0.0,
                               sign=None,
                               cache: IntersectionCache = None,
                               mode=MODE_REPAIR, indices=None,
                               assume_valid=False) -> float:
    """The smallest-magnitude signed value at p that keeps the set valid.

    Outside every sphere the answer is 0.  Inside, the sign is forced and the
    magnitude is the distance from p to the same-sign sphere-union contour:
    the minimum over uncovered same-sign intersection points, uncovered
    circle extremes and uncovered tangent points (the latter coverage-tested
    lazily in ascending distance order).  Minimality makes validity checks
    unnecessary.  ``lower_bound`` prunes candidates below a known floor.
    """
    p = np.asarray(p, dtype=np.float64)
    if not assume_valid:
        cache = _checked_cache(sample_set, cache)
    ci = sample_set.find_coincident(p)
    if ci >= 0:
        return float(sample_set.values[ci])
    scope = _scope(sample_set, indices)
    tol = sample_set.tol_geom
    pts = sample_set.points[scope]
    radii = sample_set.radii[scope]
    signs = sample_set.signs[scope]
    d = np.linalg.norm(pts - p[None, :], axis=1) if len(scope) else \
        np.empty((0,))
    inside = d < radii - tol

    if not np.any(inside):
        if lower_bound <= tol:
            return 0.0
        sg = sign if sign is not None else 1.0
        cand = sg * lower_bound
        if validity_with_candidate(sample_set, p, cand, cache=cache,
                                   indices=scope):
            return float(cand)
        return 0.0

    if sign is None:
        depth = radii[inside] - d[inside]
        sign = float(signs[inside][np.argmax(depth)])
    floor = max(float(lower_bound), 0.0)
    cache = ensure_cache(sample_set, cache)
    rmin = np.inf

    # uncovered intersection points on same-sign spheres
    rmin = min(rmin, _nearest_cached(cache, p, sign, floor - tol))

    # circle extremes (3D), then tangent points of same-sign spheres: the
    # nearest uncovered one of each kind bounds the answer
    if sample_set.dim == 3:
        extreme, ed, _ = cache.circle_extreme_candidates(
            p, mode == MODE_REPAIR, sign=sign, tol=tol)
        rmin = _nearest_uncovered(extreme, ed, floor - tol, rmin, sample_set,
                                  cache.grid)
    same = (signs == sign) & (d > sample_set.tol_unique)
    rows = np.nonzero(same)[0]
    if rows.size:
        u = (p[None, :] - pts[rows]) / d[rows][:, None]
        q_near = pts[rows] + radii[rows][:, None] * u
        q_far = pts[rows] - radii[rows][:, None] * u
        tangent_d = np.concatenate([np.abs(d[rows] - radii[rows]),
                                    d[rows] + radii[rows]])
        tangent_q = np.vstack([q_near, q_far])
        rmin = _nearest_uncovered(tangent_q, tangent_d, floor - tol, rmin,
                                  sample_set, cache.grid)
    if not np.isfinite(rmin):
        rmin = floor
    return float(sign * max(rmin, floor))


def _nearest_uncovered(qpts, dists, floor, rmin, sample_set, grid):
    """Smallest distance in [floor, rmin) whose point is uncovered, else
    rmin.  Points are coverage-tested lazily, nearest first, in sorted
    batches of 32: the first uncovered one is the answer."""
    sel = (dists >= floor) & (dists < rmin)
    qpts = qpts[sel]
    dists = dists[sel]
    order = np.argsort(dists, kind="stable")
    for a in range(0, order.size, 32):
        chunk = order[a:a + 32]
        hit = np.nonzero(grid_points_uncovered(qpts[chunk], sample_set,
                                               grid))[0]
        if hit.size:
            return float(dists[chunk[hit[0]]])
    return rmin


def _nearest_cached(cache, p, sign, floor):
    """Nearest cached uncovered point on a sphere of the given sign, at
    distance >= floor; uses a kd-tree when the cache has been frozen."""
    trees = getattr(cache, "_kdtrees", None)
    if trees is not None:
        tree, count = trees[1.0 if sign > 0 else -1.0]
        if tree is None:
            return np.inf
        k = 1
        while True:
            dd, _ = tree.query(p, k=min(k, count))
            dd = np.atleast_1d(dd)
            hits = dd[dd >= floor]
            if hits.size:
                return float(hits[0])
            if k >= count:
                return np.inf
            k = min(4 * k, count)
    return cache.nearest_point_distance(p, sign, floor=floor)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
