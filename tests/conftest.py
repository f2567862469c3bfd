import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from sdfgrow.accel import IntersectionCache, ensure_cache
from sdfgrow.core import SampleSet
from sdfgrow.geom import (
    circle_pair_intersect_2d,
    points_uncovered,
    sphere_triple_intersect_3d,
)
from sdfgrow.interp import MODE_REFINE, MODE_REPAIR, _containment, _scope
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
