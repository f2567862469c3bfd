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

from . import accel
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


# grow-to point kinds, as stored in ``GrowToPoints.kind``
SELF, TANGENT, INTERSECTION, CIRCLE_EXTREME = range(4)
KIND_NAMES = ("self", "tangent", "intersection", "circle-extreme")


@dataclass
class GrowToPoints:
    """Grow-to points as arrays: ``points`` (m, d), ``kind`` (m,) int8 codes
    indexing ``KIND_NAMES`` and ``hosts`` (m, 3) sample rows of the spheres
    each point lies on, padded with -1."""
    points: np.ndarray
    kind: np.ndarray
    hosts: np.ndarray

    def __len__(self):
        return self.kind.shape[0]

    def take(self, rows):
        return GrowToPoints(self.points[rows], self.kind[rows],
                            self.hosts[rows])


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
    never lie on a surface realizing the samples.  The query point is row 0.
    """
    p = np.asarray(p, dtype=np.float64)
    cache = ensure_cache(sample_set, cache)
    scope = _scope(sample_set, indices)
    tol = sample_set.tol_geom
    points = [p[None, :]]
    kinds = [SELF]
    hosts = [np.full((1, 3), -1, dtype=np.intp)]

    def add(kind, qpts, qhosts, sel):
        qhosts = qhosts[sel]
        padded = np.full((qhosts.shape[0], 3), -1, dtype=np.intp)
        padded[:, :qhosts.shape[1]] = qhosts
        points.append(qpts[sel])
        kinds.extend([kind] * qhosts.shape[0])
        hosts.append(padded)

    def near(dists):
        if max_dist is None:
            return np.ones(dists.shape[0], dtype=bool)
        return dists <= max_dist + tol

    # tangent points, both sides of every sphere
    pts = sample_set.points[scope]
    radii = sample_set.radii[scope]
    delta = p[None, :] - pts
    dist = np.linalg.norm(delta, axis=1)
    ok = dist > sample_set.tol_unique
    with np.errstate(invalid="ignore", divide="ignore"):
        dirs = delta / dist[:, None]
    qs = np.vstack([pts + radii[:, None] * dirs, pts - radii[:, None] * dirs])
    qd = np.concatenate([np.abs(dist - radii), dist + radii])
    sel = np.nonzero(np.concatenate([ok, ok]) & near(qd))[0]
    qs, qhosts = qs[sel], np.concatenate([scope, scope])[sel, None]
    add(TANGENT, qs, qhosts, points_uncovered(qs, sample_set, indices=scope))

    # uncovered intersection points (cache invariant: already coverage-tested)
    phosts, upts = cache.points_array()
    add(INTERSECTION, upts, phosts,
        near(np.linalg.norm(upts - p[None, :], axis=1)))

    # closest/farthest points of uncovered circles (3D); a circle whose axis
    # carries p has no extreme points and contributes nothing here
    if sample_set.dim == 3:
        extreme_pts, dists, keys = cache.circle_extreme_candidates(
            p, mode == MODE_REPAIR, tol=tol, include_degenerate=False)
        sel = near(dists)
        extreme_pts, keys = extreme_pts[sel], keys[sel]
        add(CIRCLE_EXTREME, extreme_pts, keys,
            points_uncovered(extreme_pts, sample_set, indices=scope))
    return GrowToPoints(np.vstack(points), np.array(kinds, dtype=np.int8),
                        np.vstack(hosts))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _dots(a, b):
    """Row-wise dot products, each bit-identical to ``np.dot`` on the rows
    (``np.linalg.norm(v, axis=1)`` can differ from it in the last ulp)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def radius_scores(p, s, cands: GrowToPoints, sample_set, max_radius):
    """Score of each signed radius s[k] grown from p to grow-to point k.

    Tangency with agreeing normals is best (3x max radius bonus), agreeing
    intersections next (2x), disagreeing intersections (1x), disagreeing
    tangencies worst (0); the query point itself gets no bonus.  The normals
    agree when some host sphere's outward direction at the point, flipped
    by its sign, matches the candidate's.  Larger magnitudes win within a
    tier and inside values count double.
    """
    s = np.asarray(s, dtype=np.float64)
    v_c = cands.points - np.asarray(p, dtype=np.float64)[None, :]
    flip_c = np.where(s < 0, -1.0, 1.0)
    grown = _dots(v_c, v_c) > 0.0
    agree = np.zeros(len(cands), dtype=bool)
    for h in cands.hosts.T:
        real = h >= 0
        if not np.any(real):
            continue
        v_h = cands.points - sample_set.points[h]
        flip_h = np.where(sample_set.values[h] < 0, -1.0, 1.0)
        agree |= (real & grown & (_dots(v_h, v_h) > 0.0)
                  & (flip_c * flip_h * _dots(v_c, v_h) > 0.0))
    kind = cands.kind
    type_score = np.where(
        kind == TANGENT, np.where(agree, 3.0 * max_radius, 0.0),
        np.where(kind == SELF, 0.0,
                 np.where(agree, 2.0 * max_radius, 1.0 * max_radius)))
    return np.where(s < 0, 2.0, 1.0) * np.abs(s) + type_score


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
            _, dmax = point_to_circle_distances(p[None, :], circle.center,
                                                circle.normal, circle.radius)
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


def _checked_cache(sample_set, cache):
    """The set's cache, built if needed, once the set has passed
    ``check_validity`` against it; raises InputInvalidError otherwise."""
    from .validity import check_validity
    cache = ensure_cache(sample_set, cache)
    report = check_validity(sample_set, cache=cache)
    if not report.valid:
        raise InputInvalidError("input set is not a valid discrete SDF",
                                report)
    return cache


def _ranked_radii(p, sample_set, max_radius, cache, mode, scope):
    """Candidate signed radii at p, best first.

    Returns (s, the grow-to point of each row, the required sign or None).
    One row per (grow-to point, allowed sign), pruned by the sign of any
    sphere containing p, by the containment lower bound, by the
    opposite-sign and full-coverage upper bounds and by ``max_radius``;
    ordered by score (high first), then magnitude, sign (inside first) and
    point coordinates.
    """
    tol = sample_set.tol_geom
    required_sign, lower, ub_all, ub_by_sign = _containment(sample_set, p,
                                                            scope)
    allowed = (required_sign,) if required_sign is not None else (1.0, -1.0)
    reach = min(max_radius, ub_all,
                max(ub_by_sign[sg] for sg in allowed))
    cands = grow_to_points(p, sample_set, cache=cache, mode=mode,
                           indices=scope, max_dist=reach)
    v = cands.points - p[None, :]
    dist = np.sqrt(_dots(v, v))[:, None]
    sg = np.array(allowed, dtype=np.float64)
    cap = np.array([min(max_radius, ub_all, ub_by_sign[a]) for a in allowed])
    # (candidate, sign) rows in candidate-major order
    row, col = np.nonzero(~((dist <= tol) & (sg < 0)) & ~(dist < lower - tol)
                          & ~(dist > cap + tol))
    d = dist[row, 0]
    s = sg[col] * d
    cands = cands.take(row)
    score = radius_scores(p, s, cands, sample_set, max_radius)
    order = np.lexsort(tuple(cands.points.T[::-1]) + (s >= 0, d, -score))
    return s[order], cands.take(order), required_sign


def interpolate_sdf_to(p, sample_set: SampleSet, max_radius=None,
                       cache: IntersectionCache = None, mode=MODE_REFINE,
                       indices=None, assume_valid=False) -> float:
    """Best-scoring signed distance value at p that keeps the set valid.

    Candidates are the signed distances to all grow-to points (both signs),
    ranked by ``radius_scores``; the first one that passes the validity
    check wins.  Falls back to the minimum valid radius when floating-point
    trouble leaves nothing valid.
    """
    p = np.asarray(p, dtype=np.float64)
    if not assume_valid:
        cache = _checked_cache(sample_set, cache)
    if max_radius is None:
        max_radius = default_max_radius(sample_set.dim)
    ci = sample_set.find_coincident(p)
    if ci >= 0:
        return float(sample_set.values[ci])
    scope = _scope(sample_set, indices)
    cache = ensure_cache(sample_set, cache)
    s, cands, required_sign = _ranked_radii(p, sample_set, max_radius, cache,
                                            mode, scope)
    for value, kind in zip(s.tolist(), cands.kind.tolist()):
        if validity_with_candidate(sample_set, p, value, cache=cache,
                                   indices=scope,
                                   q_hint_uncovered=(kind != SELF)):
            return value
    # floating-point pathologies can reject every candidate; the minimum
    # valid radius needs no validity checks and always exists
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
    if not assume_valid:
        cache = _checked_cache(sample_set, cache)
    return float(min_valid_radii(
        np.asarray(p, dtype=np.float64)[None, :], sample_set, cache,
        signs=None if sign is None else [sign], floors=[lower_bound],
        mode=mode, indices=indices)[0])


def min_valid_radii(points, sample_set: SampleSet, cache: IntersectionCache,
                    signs=None, floors=None, mode=MODE_REPAIR, indices=None):
    """Minimum valid radius of every row of ``points``: row k equals the
    one-row call ``min_valid_radius`` with lower bound ``floors[k]`` (default
    0) and sign ``signs[k]`` (if given), bit for bit.  Each step works on all
    rows of a chunk at once; no chunk pairs more than ``accel._PAIR_BUDGET``
    rows with samples or circles.  ``cache`` is built when a row needs it."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = points.shape[0]
    signs = np.full(m, np.nan) if signs is None else np.asarray(signs, float)
    floors = np.zeros(m) if floors is None else np.asarray(floors, float)
    scope = _scope(sample_set, indices)
    out, a = np.empty(m), 0
    while a < m:
        n_circ = 0 if cache is None else np.count_nonzero(cache._circ.alive)
        b = a + max(1, accel._PAIR_BUDGET // max(len(sample_set), n_circ, 1))
        out[a:b], cache = _min_valid_chunk(points[a:b], sample_set, cache,
                                           signs[a:b], floors[a:b], mode,
                                           scope)
        a = b
    return out


def _min_valid_chunk(p, sample_set, cache, signs, floors, mode, scope):
    """Minimum valid radii of the rows of p, and the cache."""
    tol, k, n = sample_set.tol_geom, p.shape[0], len(sample_set)
    out = np.zeros(k)
    # one distance block, each row as find_coincident computes it
    d_all = np.linalg.norm((sample_set.points[None] - p[:, None]).reshape(
        -1, sample_set.dim), axis=1).reshape(k, n)
    todo = np.ones(k, dtype=bool)
    if n:
        ci = np.argmin(d_all, axis=1)
        coincident = d_all[np.arange(k), ci] <= sample_set.tol_unique
        out[coincident] = sample_set.values[ci[coincident]]
        todo = ~coincident
    d = d_all[:, scope]
    pts, radii = sample_set.points[scope], sample_set.radii[scope]
    inside = d < radii - tol
    contained = inside.any(axis=1)

    # outside every ball: 0, or the floor itself if the set stays valid
    for r in np.nonzero(todo & ~contained & (floors > tol))[0]:
        cand = (1.0 if np.isnan(signs[r]) else signs[r]) * floors[r]
        if validity_with_candidate(sample_set, p[r], cand, cache=cache,
                                   indices=scope):
            out[r] = cand
    rows = np.nonzero(todo & contained)[0]
    if rows.size == 0:
        return out, cache
    cache = ensure_cache(sample_set, cache)
    p, d, d_all, inside = p[rows], d[rows], d_all[rows], inside[rows]
    # the deepest containing ball forces the sign
    deepest = np.argmax(np.where(inside, radii - d, -np.inf), axis=1)
    sign = np.where(np.isnan(signs[rows]), sample_set.signs[scope][deepest],
                    signs[rows])
    floor = np.where(0.0 > floors[rows], 0.0, floors[rows])

    # the nearest uncovered same-sign intersection point bounds the answer;
    # a circle extreme (3D) or tangent point beats it only if uncovered, so
    # only (row, circle) and (row, sphere) pairs that can reach nearer count
    rmin = _nearest_cached(cache, p, sign, floor - tol)
    qpts, qd, qrow = [np.empty((0, sample_set.dim))], [], []
    if sample_set.dim == 3:
        got, dist, _, owner = cache.circle_extremes(
            p, mode == MODE_REPAIR, sign, reach=rmin + tol, tol=tol)
        qpts, qd, qrow = [got], [dist], [owner]
    tr, tc = np.nonzero((sample_set.signs[scope] == sign[:, None])
                        & (d > sample_set.tol_unique)
                        & (np.abs(d - radii) < rmin[:, None]))
    dt = d[tr, tc]
    u = (p[tr] - pts[tc]) / dt[:, None]
    qpts += [pts[tc] + radii[tc, None] * u, pts[tc] - radii[tc, None] * u]
    qd = np.concatenate(qd + [np.abs(dt - radii[tc]), dt + radii[tc]])
    qrow = np.concatenate(qrow + [tr, tr])
    # a point nearer to p than the deepest ball's depth (less 2 tol) lies
    # inside that ball, so it cannot be the answer and needs no test
    lo = np.maximum(floor - tol, (sample_set.radii - d_all).max(axis=1)
                    - 2.0 * tol)
    sel = (qd >= lo[qrow]) & (qd < rmin[qrow])
    rmin = _nearest_uncovered_rows(np.vstack(qpts)[sel], qd[sel], qrow[sel],
                                   rmin, sample_set, cache.grid)
    rmin = np.where(np.isfinite(rmin), rmin, floor)
    out[rows] = sign * np.where(floor > rmin, floor, rmin)
    return out, cache


def _nearest_uncovered_rows(qpts, dists, owner, rmin, sample_set, grid):
    """Per row, its nearest uncovered point (of rows ``owner``) below rmin,
    else rmin.  Each round tests the next 32 points of every unresolved row
    in one coverage call; a row's first uncovered point is its answer."""
    order = np.lexsort((dists, owner))
    qpts, dists, owner = qpts[order], dists[order], owner[order]
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    rmin = rmin.copy()
    for a in range(0, owner.size, 32):
        take = np.nonzero((rank >= a) & (rank < a + 32)
                          & (dists < rmin[owner]))[0]
        if take.size == 0:
            break
        hit = take[grid_points_uncovered(qpts[take], sample_set, grid)]
        done, at = np.unique(owner[hit], return_index=True)
        rmin[done] = dists[hit[at]]
    return rmin


def _nearest_cached(cache, p, sign, floor):
    """Per row of p, the nearest cached uncovered point on a sphere of its
    sign at distance >= floor: one kd-tree query per sign on a frozen cache
    (a row below its floor asks for more neighbours alone), else a scan."""
    if cache._kdtrees is None:
        return np.array([cache.nearest_point_distance(q, sg, floor=f)
                         for q, sg, f in zip(p, sign, floor)])
    out = np.full(p.shape[0], np.inf)
    for sg in (1.0, -1.0):
        sel = np.nonzero((sign > 0) == (sg > 0))[0]
        tree, count = cache._kdtrees[sg]
        if sel.size == 0 or tree is None:
            continue
        dd = tree.query(p[sel], k=1)[0]
        ok = dd >= floor[sel]
        out[sel[ok]] = dd[ok]
        for r in sel[~ok]:
            k = 1
            while np.isinf(out[r]) and k < count:
                k = min(4 * k, count)
                dd = np.atleast_1d(tree.query(p[r], k=k)[0])
                out[r] = dd[dd >= floor[r]].min(initial=np.inf)
    return out


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
