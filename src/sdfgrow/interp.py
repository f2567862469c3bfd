"""Consistent signed-distance interpolation at a single query point.

A candidate sphere grown from the query point can only change validity when
its surface passes a *grow-to point*: a tangency with an existing sphere, an
uncovered intersection point of existing spheres, the closest/farthest point
of an uncovered intersection circle (3D), or the query point itself.  The
candidate radii derived from these points are scored (tangency and normal
agreement first, then magnitude, inside preferred over outside) and the best
one that keeps the augmented set valid wins.  The smallest magnitude over
the same-sign candidates is the minimum valid radius, computable without any
validity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import IntersectionCache, ensure_cache, grid_points_uncovered
from .core import InputInvalidError, SampleSet, default_max_radius
from .geom import (
    pair_candidate_points_3d,
    pair_points_2d_batch,
    point_to_circle_distances,
    points_uncovered,
    probe_point,
)

MODE_REFINE = "refine"    # only fully uncovered circles feed candidates
MODE_REPAIR = "repair"    # all partially uncovered circles are considered


@dataclass
class GrowToCandidate:
    point: np.ndarray
    kind: str                      # self | tangent | intersection | circle-extreme
    hosts: tuple                   # ((index, SignedSample), ...)

    @property
    def is_tangency(self):
        return self.kind == "tangent"


def _scope(sample_set, indices):
    if indices is None:
        return np.arange(len(sample_set), dtype=np.intp)
    return np.asarray(indices, dtype=np.intp)


def grow_to_points(p, sample_set: SampleSet, cache: IntersectionCache = None,
                   mode=MODE_REFINE, indices=None, max_dist=None):
    """All candidate grow-to points for a query position.

    Tangent points are generated per sphere (both sides), intersection points
    and circle extremes come from the cache; every candidate except the query
    point itself is filtered by the coverage test, since a covered point can
    never lie on a surface realizing the samples.
    """
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
    rows, upts = cache.points_array()
    if upts.shape[0]:
        ud = np.linalg.norm(upts - p[None, :], axis=1)
        sel = np.ones(upts.shape[0], dtype=bool)
        if max_dist is not None:
            sel = ud <= max_dist + tol
        for r, row in zip(rows[sel], np.nonzero(sel)[0]):
            hosts = tuple((h, sample_set[h]) for h in cache.point_hosts(r))
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


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

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


def score_for_radius(p, s, host, candidate: GrowToCandidate, max_radius):
    """Score of a signed candidate radius.

    Tangency with agreeing normals is best (3x max radius bonus), agreeing
    intersections next (2x), disagreeing intersections (1x), disagreeing
    tangencies worst (0).  Larger magnitudes win within a tier and inside
    values count double.
    """
    p = np.asarray(p, dtype=np.float64)
    if host is not None:
        hosts = ((None, host),)
    else:
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


# ---------------------------------------------------------------------------
# incremental validity of (set + one candidate sphere)
# ---------------------------------------------------------------------------

def _uncovered_with_extra(qpts, sample_set, scope, center, radius):
    """Coverage test against the scoped set plus one extra ball."""
    flags = points_uncovered(qpts, sample_set, indices=scope)
    d = np.linalg.norm(np.atleast_2d(qpts) - np.asarray(center)[None, :],
                       axis=1)
    return flags & ~(d < radius - sample_set.tol_geom)


def _existing_sphere_survives(j, sample_set, p, mag, cache, scope):
    """Does sphere j keep an uncovered point after adding ball (p, mag)?"""
    tol = sample_set.tol_geom
    jpts = cache.sphere_points(j)
    if jpts.shape[0]:
        d = np.linalg.norm(jpts - p[None, :], axis=1)
        if np.any(d >= mag - tol):
            return True
    if sample_set.dim == 3:
        # a fully uncovered circle has no cached points; it keeps sphere j
        # valid unless the new ball swallows it whole (a partial cut leaves
        # uncovered arcs behind)
        for circle in cache.sphere_full_circles(j):
            _, dmax = point_to_circle_distances(p[None, :], circle)
            if dmax[0] >= mag - tol:
                return True
    had_candidates = bool(jpts.shape[0]) or \
        cache.sphere_intersects_something(j, sample_set)
    # every surviving uncovered point, if any, borders the new ball
    cj = sample_set.points[j]
    rj = sample_set.radii[j]
    if sample_set.dim == 2:
        new_pts, _ = pair_points_2d_batch(
            cj[None, :], [rj], p[None, :], [mag],
            sample_set.tol_unique, tol)
    else:
        new_pts, _ = pair_candidate_points_3d(cj, rj, p, mag,
                                              scope[scope != j], sample_set)
    if new_pts.shape[0] == 0:
        return False if had_candidates or _ball_swallows(p, mag, cj, rj, tol) \
            else _probe_survives(j, sample_set, p, mag, scope)
    return bool(np.any(_uncovered_with_extra(new_pts, sample_set, scope,
                                             p, mag)))


def _ball_swallows(p, mag, c, r, tol):
    return np.linalg.norm(np.asarray(c) - p) + r < mag - tol


def _probe_survives(j, sample_set, p, mag, scope):
    q = probe_point(sample_set.points[j], sample_set.radii[j])
    return bool(_uncovered_with_extra(q[None, :], sample_set, scope,
                                      p, mag)[0])


def validity_with_candidate(sample_set: SampleSet, p, s,
                            cache: IntersectionCache = None, indices=None,
                            q_hint_uncovered=False) -> bool:
    """True iff appending the sample (p, s) to a valid set keeps it valid.

    Decided incrementally: opposite-sign overlap against the new ball,
    survival of an uncovered point for every existing sphere the new ball
    reaches, and an uncovered point for the new sphere itself (free when the
    grow-to point that produced s is known to be uncovered).  The survival
    test reads ``cache``, the set's intersection cache, built when needed.
    """
    p = np.asarray(p, dtype=np.float64)
    s = float(s)
    mag = abs(s)
    scope = _scope(sample_set, indices)
    tol = sample_set.tol_geom
    pts = sample_set.points[scope]
    radii = sample_set.radii[scope]
    signs = sample_set.signs[scope]
    d = np.linalg.norm(pts - p[None, :], axis=1)

    s_sign = -1.0 if s < 0 else 1.0
    opp = signs != s_sign
    if np.any(d[opp] < mag + radii[opp] - tol):
        return False

    affected = np.nonzero(np.abs(d - radii) < mag - tol)[0]
    if affected.size:
        cache = ensure_cache(sample_set, cache)
    for row in affected:
        if not _existing_sphere_survives(int(scope[row]), sample_set, p, mag,
                                         cache, scope):
            return False

    if q_hint_uncovered:
        return True
    # uncovered point for the new sphere itself
    if mag <= tol:
        return bool(points_uncovered(p[None, :], sample_set,
                                     indices=scope)[0])
    touch = np.abs(d - radii) < mag + tol
    cand_rows = np.nonzero(touch)[0]
    new_pts = []
    if sample_set.dim == 2:
        if cand_rows.size:
            qpts, _ = pair_points_2d_batch(
                np.broadcast_to(p, (cand_rows.size, 2)),
                np.full(cand_rows.size, mag),
                pts[cand_rows], radii[cand_rows],
                sample_set.tol_unique, tol)
            if qpts.shape[0]:
                new_pts.append(qpts)
    else:
        for row in cand_rows:
            got, _ = pair_candidate_points_3d(p, mag, pts[row], radii[row],
                                              scope[scope != scope[row]],
                                              sample_set)
            if got.shape[0]:
                new_pts.append(got)
    if new_pts:
        new_pts = np.vstack(new_pts)
        on_new = np.abs(np.linalg.norm(new_pts - p[None, :], axis=1)
                        - mag) <= 10.0 * tol
        new_pts = new_pts[on_new]
        if new_pts.shape[0]:
            flags = points_uncovered(new_pts, sample_set, indices=scope)
            return bool(np.any(flags))
    q = probe_point(p, mag)
    return bool(points_uncovered(q[None, :], sample_set, indices=scope)[0])


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _containment(sample_set, p, scope):
    pts = sample_set.points[scope]
    radii = sample_set.radii[scope]
    signs = sample_set.signs[scope]
    d = np.linalg.norm(pts - p[None, :], axis=1)
    inside = d < radii - sample_set.tol_geom
    required_sign = None
    lower = 0.0
    if np.any(inside):
        depth = radii[inside] - d[inside]
        required_sign = float(signs[inside][np.argmax(depth)])
        lower = float(np.max(depth))
    ub_all = float(np.min(d + radii)) if len(d) else np.inf
    ub_pos = float(np.min(d[signs < 0] - radii[signs < 0])) \
        if np.any(signs < 0) else np.inf
    ub_neg = float(np.min(d[signs > 0] - radii[signs > 0])) \
        if np.any(signs > 0) else np.inf
    return required_sign, lower, ub_all, {1.0: ub_pos, -1.0: ub_neg}


def interpolate_sdf_to(p, sample_set: SampleSet, max_radius=None,
                       cache: IntersectionCache = None, mode=MODE_REFINE,
                       indices=None, assume_valid=False,
                       on_fallback=None) -> float:
    """Best-scoring signed distance value at p that keeps the set valid.

    Candidates are the signed distances to all grow-to points (both signs),
    pruned by the sign of any sphere containing p, by the containment lower
    bound, by the opposite-sign and full-coverage upper bounds and by
    ``max_radius``; the highest-scoring candidate that passes the validity
    check wins.  Falls back to the minimum valid radius when floating-point
    trouble leaves nothing valid.
    """
    p = np.asarray(p, dtype=np.float64)
    if not assume_valid:
        from .validity import check_validity
        cache = ensure_cache(sample_set, cache)
        report = check_validity(sample_set, cache=cache)
        if not report.valid:
            raise InputInvalidError("input set is not a valid discrete SDF",
                                    report)
    if max_radius is None:
        max_radius = default_max_radius(sample_set.dim)
    ci = sample_set.find_coincident(p)
    if ci >= 0:
        return float(sample_set.values[ci])
    scope = _scope(sample_set, indices)
    tol = sample_set.tol_geom
    cache = ensure_cache(sample_set, cache)

    required_sign, lower, ub_all, ub_by_sign = _containment(sample_set, p,
                                                            scope)
    allowed = (required_sign,) if required_sign is not None else (1.0, -1.0)
    reach = min(max_radius, ub_all,
                max(ub_by_sign[sg] for sg in allowed))
    candidates = grow_to_points(p, sample_set, cache=cache, mode=mode,
                                indices=scope, max_dist=reach)

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
            score = score_for_radius(p, s, None, cand, max_radius)
            scored.append((-score, dist, 0 if s < 0 else 1,
                           tuple(cand.point), s, cand))
    scored.sort(key=lambda t: t[:4])
    for _, dist, _, _, s, cand in scored:
        if validity_with_candidate(sample_set, p, s, cache=cache,
                                   indices=scope,
                                   q_hint_uncovered=(cand.kind != "self")):
            return float(s)
    # floating-point pathologies can reject every candidate; the minimum
    # valid radius needs no validity checks and always exists
    if on_fallback is not None:
        on_fallback()
    return min_valid_radius(p, sample_set, lower_bound=0.0,
                            sign=required_sign, cache=cache,
                            mode=MODE_REPAIR, indices=indices,
                            assume_valid=True)


# ---------------------------------------------------------------------------
# minimum valid radius
# ---------------------------------------------------------------------------

def min_valid_radius(p, sample_set: SampleSet, lower_bound=0.0, sign=None,
                     cache: IntersectionCache = None, mode=MODE_REPAIR,
                     indices=None, assume_valid=False) -> float:
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
        from .validity import check_validity
        cache = ensure_cache(sample_set, cache)
        report = check_validity(sample_set, cache=cache)
        if not report.valid:
            raise InputInvalidError("input set is not a valid discrete SDF",
                                    report)
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


def freeze_cache_for_queries(cache: IntersectionCache):
    """Build per-sign kd-trees over the cached uncovered points.  Worth it
    when many minimum-radius queries run against a fixed cache.  A no-op if
    the cache has not changed since the last freeze."""
    from scipy.spatial import cKDTree
    if cache._kdtrees is not None:
        return cache
    trees = {}
    for sg in (1.0, -1.0):
        _, pts = cache.points_array(sg)
        trees[sg] = (cKDTree(pts) if pts.shape[0] else None, pts.shape[0])
    cache._kdtrees = trees
    return cache
