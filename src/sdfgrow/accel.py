"""Acceleration structures: an array-backed index of the sample balls for
box queries, the cache of uncovered intersections (with a rasterization
prefilter to avoid the O(n^(d+1)) initialization), incremental cache
updates, and sphere culling.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from .core import DOMAIN_HI, DOMAIN_LO, SampleSet, SdfError
from .geom import (
    IntersectionCircle,
    circle_reference_points,
    pair_contacts_and_circles,
    pair_points_2d_batch,
    point_to_circle_distances,
    rowdot,
    sphere_pair_contact_or_circle,
    triple_points_batch,
)


def raster_resolution_auto(n, dim):
    """Default per-axis raster resolution: 10 * n^(1/d), rounded up to the
    nearest power of two that is >= 64."""
    target = 10.0 * max(n, 1) ** (1.0 / dim)
    res = 64
    while res < target:
        res *= 2
    return res


class _Table:
    """Row-aligned column arrays that double their capacity when full, as
    SampleSet does.  Rows are never reused; rows past the last one appended
    are zeros (an ``alive`` column reads False there)."""

    def __init__(self, **columns):         # name -> (row shape, dtype)
        self.n = 0
        self._names = tuple(columns)
        for name, (shape, dtype) in columns.items():
            setattr(self, name, np.zeros((16,) + shape, dtype=dtype))

    def append(self, **values):
        """Append rows, one array per column; returns the new row ids."""
        end = self.n + len(next(iter(values.values())))
        cap = getattr(self, self._names[0]).shape[0]
        if end > cap:
            while cap < end:
                cap *= 2
            for name in self._names:
                old = getattr(self, name)
                grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:self.n] = old[:self.n]
                setattr(self, name, grown)
        for name, value in values.items():
            getattr(self, name)[self.n:end] = value
        rows = np.arange(self.n, end)
        self.n = end
        return rows


class SpatialHashGrid:
    """Index of the sample balls for box queries.  Each ball's bounding box,
    padded by ``tol``, is one row of a table that doubles its capacity when
    full; a query is one vectorized overlap test against every row, whatever
    the balls' sizes.  Ball i is the i-th ball inserted, i.e. sample row i.
    The class keeps its former name, under which bench/tracer.py traces
    ``query_bbox``."""

    def __init__(self, dim, tol):
        self.dim = dim
        self.tol = float(tol)
        self._box = _Table(lo=((dim,), np.float64), hi=((dim,), np.float64))

    def __len__(self):
        return self._box.n

    def insert_balls(self, centers, radii):
        """Append balls (one center and radius, or arrays of them)."""
        centers = np.reshape(centers, (-1, self.dim))
        reach = np.reshape(radii, (-1, 1)) + self.tol
        self._box.append(lo=centers - reach, hi=centers + reach)

    def query_bbox(self, lo, hi):
        """Ascending indices of the balls whose padded box meets [lo, hi]."""
        n = self._box.n
        meets = (self._box.lo[:n] <= hi) & (self._box.hi[:n] >= lo)
        return np.flatnonzero(meets.all(axis=1))


def build_ball_grid(sample_set: SampleSet):
    """Ball index holding every sample ball of the set."""
    grid = SpatialHashGrid(sample_set.dim, sample_set.tol_geom)
    grid.insert_balls(sample_set.points, sample_set.radii)
    return grid


# points x candidate balls of one exact coverage test in grid_points_uncovered
_PAIR_BUDGET = 1 << 15


def grid_points_uncovered(points, sample_set, grid, hosts=None):
    """Coverage test for many points at once.  Each test is local: the grid
    gives the balls near the points' bounding box, and a point set whose
    pairs with those balls exceed _PAIR_BUDGET is split at the median of its
    longest axis first.  ``hosts`` optionally gives each point's host
    spheres, an (m, k) index array padded with -1: a point lies on its
    hosts' surfaces, so it is never covered by them."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.ones(points.shape[0], dtype=bool)
    tol = sample_set.tol_geom
    pending = [np.arange(points.shape[0])] if points.shape[0] else []
    while pending:
        rows = pending.pop()
        lo = points[rows].min(axis=0)
        hi = points[rows].max(axis=0)
        cand = grid.query_bbox(lo, hi)
        if rows.size > 1 and rows.size * cand.size > _PAIR_BUDGET:
            axis = int(np.argmax(hi - lo))
            half = rows.size // 2
            split = np.argpartition(points[rows, axis], half)
            pending += [rows[split[:half]], rows[split[half:]]]
        elif cand.size:
            d = np.linalg.norm(points[rows][:, None, :]
                               - sample_set.points[cand][None, :, :], axis=2)
            inside = d < sample_set.radii[cand][None, :] - tol
            if hosts is not None:
                inside &= ~(hosts[rows][:, :, None] == cand).any(axis=1)
            out[rows] = ~inside.any(axis=1)
    return out


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

_FULL, _PARTIAL, _CUT = 0, 1, 2
_STATUS_NAMES = ("full", "partial", "cut")


def _sign_flags(hosts, signs):
    """(has a positive host, has a negative host) per row of a host array
    padded with -1."""
    real = hosts >= 0
    hs = signs[np.where(real, hosts, 0)]
    return (real & (hs > 0)).any(axis=1), (real & (hs < 0)).any(axis=1)


class IntersectionCache:
    """Uncovered intersection points (and, in 3D, intersection circles with
    their coverage status) of a sample set, kept current across inserts.

    Points and circles are each one struct-of-arrays table.  Points carry
    their host spheres (sorted, padded with -1 to three) and are append-only
    with an alive flag, so row ids stay stable; every alive point passes the
    coverage test against the current set, where a point is never covered
    by its own hosts.  Circles carry center, radius, normal, host pair,
    status ('full': entirely uncovered, 'partial': cut but with an uncovered
    triple point left, 'cut': pending resolution) and an alive flag.  Both
    tables flag rows with a positive or negative host sphere.
    """

    def __init__(self, sample_set: SampleSet, grid: SpatialHashGrid):
        self.dim = sample_set.dim
        self.n_synced = len(sample_set)
        self.grid = grid
        self._pt = _Table(xyz=((self.dim,), np.float64),
                          hosts=((3,), np.intp), alive=((), bool),
                          has_pos=((), bool), has_neg=((), bool))
        self._circ = _Table(center=((3,), np.float64),
                            radius=((), np.float64),
                            normal=((3,), np.float64),
                            hosts=((2,), np.intp), status=((), np.int8),
                            alive=((), bool), has_pos=((), bool),
                            has_neg=((), bool))
        self._pts_of = defaultdict(set)     # sphere -> alive point rows
        self._circs_of = defaultdict(set)   # sphere -> alive circle rows
        self._kdtrees = None

    # -- construction ------------------------------------------------------

    def add_points(self, pts, hosts, signs):
        """Append points with their host rows (sorted, padded with -1)."""
        hosts = np.asarray(hosts, dtype=np.intp).reshape(-1, 3)
        if hosts.shape[0] == 0:
            return
        has_pos, has_neg = _sign_flags(hosts, signs)
        rows = self._pt.append(xyz=pts, hosts=hosts,
                               alive=np.ones(hosts.shape[0], dtype=bool),
                               has_pos=has_pos, has_neg=has_neg)
        for r, hs in zip(rows.tolist(), hosts.tolist()):
            for h in hs:
                if h >= 0:
                    self._pts_of[h].add(r)
        self._kdtrees = None

    def add_circles(self, centers, radii, normals, hosts, status, signs):
        """Append circles, one row per circle; returns the new row ids."""
        hosts = np.sort(np.asarray(hosts, dtype=np.intp).reshape(-1, 2),
                        axis=1)
        has_pos, has_neg = _sign_flags(hosts, signs)
        rows = self._circ.append(
            center=np.reshape(centers, (-1, 3)), radius=radii,
            normal=np.reshape(normals, (-1, 3)), hosts=hosts, status=status,
            alive=np.ones(hosts.shape[0], dtype=bool),
            has_pos=has_pos, has_neg=has_neg)
        for r, hs in zip(rows.tolist(), hosts.tolist()):
            for h in hs:
                self._circs_of[h].add(r)
        return rows

    def drop_circles(self, rows):
        self._circ.alive[rows] = False
        for r, hs in zip(rows.tolist(), self._circ.hosts[rows].tolist()):
            for h in hs:
                self._circs_of[h].discard(r)

    def resolve_cut_circles(self, rows):
        """Cut circles (of ``rows``) stay, as partial, iff one of their
        triple points is still cached (alive, with both circle hosts among
        its hosts)."""
        on = self._pts_of
        kept = np.array([not on.get(i, set()).isdisjoint(on.get(j, ()))
                         for i, j in self._circ.hosts[rows].tolist()],
                        dtype=bool)
        self._circ.status[rows[kept]] = _PARTIAL
        self.drop_circles(rows[~kept])

    def circle(self, row):
        c = self._circ
        return IntersectionCircle(center=c.center[row].copy(),
                                  radius=float(c.radius[row]),
                                  normal=c.normal[row].copy(),
                                  hosts=tuple(int(h) for h in c.hosts[row]))

    def _circle_frame(self, p, rows):
        """Per circle row: the part u of p - center across the normal, its
        length, the part along the normal, and the circle radius."""
        normals = self._circ.normal[rows]
        v = np.asarray(p) - self._circ.center[rows]
        along = np.einsum("md,md->m", v, normals)
        u = v - along[:, None] * normals
        return u, np.linalg.norm(u, axis=1), along, self._circ.radius[rows]

    def circles_touched_by_ball(self, center, radius, tol):
        """(swallowed rows, cut rows): live circles entirely inside the ball
        versus merely reached by its interior.  One vectorized pass."""
        rows = np.nonzero(self._circ.alive)[0]
        if rows.size == 0:
            return rows, rows
        _, nu, along, rho = self._circle_frame(center, rows)
        dmin = np.sqrt((nu - rho) ** 2 + along ** 2)
        dmax = np.sqrt((nu + rho) ** 2 + along ** 2)
        swallowed = rows[dmax < radius - tol]
        cut = rows[(dmin < radius - tol) & (dmax >= radius - tol)]
        return swallowed, cut

    def circle_extreme_candidates(self, p, include_partial, sign=None,
                                  tol=1e-6, include_degenerate=True):
        """Closest/farthest points of every open circle from p, as (points
        (m, 3), distances (m,), host pairs (m, 2)).  ``sign`` keeps only
        circles with a host sphere of that sign; see ``circle_extremes``."""
        return self.circle_extremes(
            np.asarray(p)[None, :], include_partial,
            None if sign is None else np.array([sign]), tol=tol,
            include_degenerate=include_degenerate)[:3]

    def circle_extremes(self, points, include_partial, signs=None,
                        reach=None, tol=1e-6, include_degenerate=True):
        """Closest/farthest circle points from every row of ``points``, as
        (points, distances, host pairs, row of ``points``).  Open circles
        are the live ones (only the entirely uncovered ones unless
        ``include_partial``); ``signs`` keeps those with a host sphere of the
        row's sign, ``reach`` those with |point - center| < reach + radius.
        An axis-degenerate circle (the point on its axis, all its points
        equidistant) gives its deterministic reference point, or nothing
        without ``include_degenerate``."""
        c = self._circ
        rows = np.nonzero(c.alive & (include_partial | (c.status == _FULL)))[0]
        keep = np.ones((points.shape[0], rows.size), dtype=bool)
        if signs is not None:
            keep &= np.where(signs[:, None] > 0, c.has_pos[rows],
                             c.has_neg[rows])
        if reach is not None:
            d2 = sum((c.center[rows][None, :, a] - points[:, a, None]) ** 2
                     for a in range(3))
            keep &= d2 < (reach[:, None] + c.radius[rows]) ** 2
        pi, k = np.nonzero(keep)
        rows, p = rows[k], points[pi]
        centers = c.center[rows]
        u, nu, along, rho = self._circle_frame(p, rows)
        w = np.nonzero(nu > tol)[0]
        dirs = u[w] / nu[w][:, None]
        pts = [centers[w] + rho[w][:, None] * dirs,
               centers[w] - rho[w][:, None] * dirs]
        dists = [np.sqrt((nu[w] - rho[w]) ** 2 + along[w] ** 2),
                 np.sqrt((nu[w] + rho[w]) ** 2 + along[w] ** 2)]
        src = [w, w]
        g = np.nonzero(~(nu > tol))[0]
        if include_degenerate and g.size:
            refs = circle_reference_points(centers[g], c.normal[rows[g]],
                                           rho[g])
            off = refs - p[g]
            pts.append(refs)
            dists.append(np.sqrt(rowdot(off, off)))
            src.append(g)
        src = np.concatenate(src)
        return (np.vstack(pts), np.concatenate(dists), c.hosts[rows[src]],
                pi[src])

    # -- queries -----------------------------------------------------------

    @property
    def circles(self):
        """Read-only view of the live circles: (i, j) -> (circle, status)."""
        return {tuple(self._circ.hosts[r].tolist()):
                (self.circle(r), _STATUS_NAMES[self._circ.status[r]])
                for r in np.nonzero(self._circ.alive)[0]}

    def alive_rows(self):
        return np.nonzero(self._pt.alive)[0]

    def points_array(self, sign=None):
        """(hosts (m, 3), points) of alive cached points; with ``sign``
        restricted to points lying on at least one sphere of that sign."""
        mask = self._pt.alive.copy()
        if sign is not None:
            mask &= self._pt.has_pos if sign > 0 else self._pt.has_neg
        rows = np.nonzero(mask)[0]
        return self._pt.hosts[rows], self._pt.xyz[rows]

    def sphere_point_rows(self, i):
        return list(self._pts_of.get(int(i), ()))

    def sphere_points(self, i):
        rows = self.sphere_point_rows(i)
        if not rows:
            return np.empty((0, self.dim))
        return self._pt.xyz[rows]

    def sphere_has_open_circle(self, i):
        return bool(self._circs_of.get(int(i)))

    def sphere_full_circles(self, i):
        """The entirely uncovered circles on sphere i."""
        return [self.circle(r) for r in self._circs_of.get(int(i), ())
                if self._circ.status[r] == _FULL]

    def sphere_intersects_something(self, i, sample_set):
        pts = sample_set.points
        radii = sample_set.radii
        cand = self.grid.query_bbox(pts[i] - radii[i], pts[i] + radii[i])
        cand = cand[cand != i]
        if cand.size == 0:
            return False
        d = np.linalg.norm(pts[cand] - pts[i], axis=1)
        tol = sample_set.tol_geom
        touch = ((d > sample_set.tol_unique)
                 & (d <= radii[i] + radii[cand] + tol)
                 & (d >= np.abs(radii[i] - radii[cand]) - tol))
        return bool(np.any(touch))

    def nearest_point_distance(self, p, sign, floor=-np.inf):
        """Distance from p to the nearest alive cached point on a sphere of
        the given sign, ignoring candidates closer than ``floor``."""
        _, pts = self.points_array(sign)
        if pts.shape[0] == 0:
            return np.inf
        d = np.linalg.norm(pts - np.asarray(p)[None, :], axis=1)
        d = d[d >= floor]
        return float(np.min(d)) if d.size else np.inf

    # -- maintenance -------------------------------------------------------

    def remove_points_in_ball(self, center, radius, tol):
        rows = self.alive_rows()
        if rows.size == 0:
            return
        d = np.linalg.norm(self._pt.xyz[rows] - np.asarray(center)[None, :],
                           axis=1)
        dead = rows[d < radius - tol]
        if dead.size:
            self._pt.alive[dead] = False
            for r, hs in zip(dead.tolist(), self._pt.hosts[dead].tolist()):
                for h in hs:
                    if h >= 0:
                        self._pts_of[h].discard(r)
            self._kdtrees = None


# ---------------------------------------------------------------------------
# rasterization prefilter
# ---------------------------------------------------------------------------

class _RasterInfo:
    """Burial map of one rasterization pass: pixels deeper inside some ball
    than their half-diagonal cannot contain uncovered points."""

    def __init__(self, lo, px, res, buried, halfdiag):
        self.lo = lo
        self.px = px
        self.res = res
        self.buried = buried
        self.halfdiag = halfdiag

    def points_buried(self, points):
        points = np.atleast_2d(points)
        idx = np.floor((points - self.lo) / self.px).astype(np.int64)
        np.clip(idx, 0, self.res - 1, out=idx)
        return self.buried[tuple(idx.T)]


def _raster_bounds(sample_set):
    """Raster window: the [-1,1]^d domain, expanded if any ball pokes out."""
    lo = np.full(sample_set.dim, DOMAIN_LO)
    hi = np.full(sample_set.dim, DOMAIN_HI)
    if len(sample_set):
        pts = sample_set.points
        radii = sample_set.radii[:, None]
        lo = np.minimum(lo, np.min(pts - radii, axis=0))
        hi = np.maximum(hi, np.max(pts + radii, axis=0))
    return lo, hi


def _windows(lo, px, res, centers, reach):
    """Per ball, the pixel slices (one per axis) of the box centers +- reach,
    clipped to the raster."""
    a = np.clip(np.floor((centers - reach[:, None] - lo) / px), 0, res - 1)
    b = np.clip(np.floor((centers + reach[:, None] - lo) / px), 0, res - 1)
    return [tuple(map(slice, ai, bi)) for ai, bi in
            zip(a.astype(np.intp).tolist(), (b.astype(np.intp) + 1).tolist())]


def _check_key_range(n, res, dim):
    """Raise SdfError unless the packed int64 keys of the nominations fit: a
    (pixel, sphere) mark needs res^d * n < 2^63, a sphere tuple n^2 (2D) or
    n^3 (3D)."""
    n, res = int(n), int(res)
    if res ** dim * n >= 2 ** 63 or n ** (3 if dim == 3 else 2) >= 2 ** 63:
        raise SdfError(f"{n} spheres on a {res}^{dim} raster overflow the "
                       "int64 nomination keys; use fewer samples or a "
                       "coarser raster")


def _raster_marks(sample_set, res):
    """Pixel-level marks of the spheres that may carry uncovered
    intersections: (pixel ids, sphere ids, raster info), one entry per mark.

    A pixel is marked for sphere i when the pixel box touches sphere i's
    surface and no ball buries the pixel deeper than its half-diagonal (a
    buried pixel cannot contain an uncovered point).  Pixels marked by >= 2
    spheres nominate pairs, pixels with >= 3 nominate triples (3D).
    """
    _check_key_range(len(sample_set), res, sample_set.dim)
    dim = sample_set.dim
    pts = sample_set.points
    radii = sample_set.radii
    tol = sample_set.tol_geom
    n = len(sample_set)
    lo, hi = _raster_bounds(sample_set)
    px = (hi - lo) / res
    halfdiag = 0.5 * float(np.linalg.norm(px))
    centers_ax = [lo[a] + (np.arange(res) + 0.5) * px[a] for a in range(dim)]

    def dist_to_center(i, sl):
        """Distances from ball i's center to the pixel centers of window sl."""
        mesh = np.ix_(*[centers_ax[a][sl[a]] - pts[i, a] for a in range(dim)])
        return np.sqrt(sum(x ** 2 for x in mesh))

    # pass 1: burial depth
    depth = np.zeros((res,) * dim)
    windows = _windows(lo, px, res, pts, radii)
    for i in np.flatnonzero(radii > halfdiag).tolist():
        sl = windows[i]
        np.maximum(depth[sl], radii[i] - dist_to_center(i, sl),
                   out=depth[sl])
    buried = depth > halfdiag + tol

    # pass 2: contour marking
    pix_ids = [np.empty(0, np.int64)]
    sph_ids = [np.empty(0, np.intp)]
    windows = _windows(lo, px, res, pts, radii + halfdiag + tol)
    for i in range(n):
        sl = windows[i]
        mark = ((np.abs(dist_to_center(i, sl) - radii[i]) <= halfdiag + tol)
                & ~buried[sl])
        # pixel id: sum of index_a * res^a
        hits = sum((ix + sl[a].start) * res ** a
                   for a, ix in enumerate(np.nonzero(mark)))
        if hits.size:
            pix_ids.append(hits)
            sph_ids.append(np.full(hits.size, i, dtype=np.intp))

    info = _RasterInfo(lo=lo, px=px, res=res, buried=buried,
                       halfdiag=halfdiag)
    return np.concatenate(pix_ids), np.concatenate(sph_ids), info


def _combinations(g, k):
    """All k-subsets of range(g), as a lexicographically sorted (C, k)
    array."""
    return np.array(list(itertools.combinations(range(g), k)),
                    dtype=np.intp).reshape(-1, k)


def _sorted_unique(keys):
    """np.unique of an int array by sorting; numpy's hash-based unique is
    many times slower on large int64 arrays."""
    keys = np.sort(keys, axis=None)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def _raster_nominations(pix, sph, n, dim):
    """The sphere pairs (P, 2) and triples (T, 3; none in 2D) that share a
    marked pixel, unique and lexicographically sorted.

    Marks are packed as pix * n + sph and made unique, which sorts them by
    pixel and then sphere.  Pixel groups are handled by size: the groups of
    size g form an (m, g) matrix, indexed once with all k-subsets of
    range(g), and each k-tuple is packed into one int64 key."""
    pix, sph = np.divmod(_sorted_unique(pix * n + sph), n)
    starts = np.flatnonzero(np.diff(pix, prepend=-1))
    sizes = np.diff(np.append(starts, pix.size))
    out = []
    for k in (2, 3):                    # triples only in 3D: k <= dim
        keys = np.empty(0, np.int64)
        for g in np.unique(sizes[sizes >= k]).tolist() if k <= dim else ():
            groups = sph[starts[sizes == g][:, None] + np.arange(g)]
            combos = _combinations(g, k)
            key = groups[:, combos[:, 0]]
            for c in range(1, k):
                key = key * n + groups[:, combos[:, c]]
            # merge after each size, so that repeats never pile up
            keys = _sorted_unique(np.append(keys, key))
        out.append(keys[:, None] // n ** np.arange(k - 1, -1, -1) % n)
    return tuple(out)


def _classify_circle(circle, sample_set, cand):
    """_FULL, _CUT or None: None means the circle is entirely inside some
    ball.  _CUT leaves partial-vs-dead to the triple points.  ``cand`` must
    hold every ball that can reach the circle (its hosts may be among
    them)."""
    tol = sample_set.tol_geom
    cand = cand[(cand != circle.hosts[0]) & (cand != circle.hosts[1])]
    if cand.size == 0:
        return _FULL
    dmin, dmax = point_to_circle_distances(sample_set.points[cand],
                                           circle.center, circle.normal,
                                           circle.radius)
    radii = sample_set.radii[cand]
    if np.any(dmax < radii - tol):
        return None
    return _CUT if np.any(dmin < radii - tol) else _FULL


def build_cache(sample_set: SampleSet, raster_res=None, grid=None,
                exhaustive=False) -> IntersectionCache:
    """Precompute all uncovered intersection points (2D: pair crossings and
    tangencies; 3D: triple points and pair contacts) plus, in 3D, all
    intersection circles that keep at least one uncovered point.

    The raster prefilter nominates candidate tuples conservatively; every
    nomination is then decided by exact geometry, so the result matches an
    exhaustive all-pairs/all-triples enumeration.  ``exhaustive=True`` skips
    the raster and nominates everything (sensible for small sets).
    """
    n = len(sample_set)
    if raster_res is None:
        raster_res = raster_resolution_auto(n, sample_set.dim)
    if grid is None:
        grid = build_ball_grid(sample_set)
    cache = IntersectionCache(sample_set, grid)
    if n < 2:
        return cache
    if exhaustive:
        pairs = _combinations(n, 2)
        triples = _combinations(n, 3) if sample_set.dim == 3 \
            else np.empty((0, 3), dtype=np.intp)
        info = None
    else:
        pix, sph, info = _raster_marks(sample_set, raster_res)
        pairs, triples = _raster_nominations(pix, sph, n, sample_set.dim)
    signs = sample_set.signs
    pts = sample_set.points
    radii = sample_set.radii
    tol = sample_set.tol_geom

    def add_uncovered(qpts, hosts):
        keep = np.ones(qpts.shape[0], dtype=bool)
        if info is not None:
            keep = ~info.points_buried(qpts)
        if np.any(keep):
            keep[keep] = grid_points_uncovered(qpts[keep], sample_set, grid,
                                               hosts=hosts[keep])
        cache.add_points(qpts[keep], hosts[keep], signs)

    if sample_set.dim == 2:
        if len(pairs):
            qpts, rows = pair_points_2d_batch(
                pts[pairs[:, 0]], radii[pairs[:, 0]],
                pts[pairs[:, 1]], radii[pairs[:, 1]],
                sample_set.tol_unique, tol)
            hosts = np.column_stack([pairs[rows],
                                     np.full(rows.size, -1, dtype=np.intp)])
            add_uncovered(qpts, hosts)
        return cache

    # 3D: contacts and circles from pairs
    tri_pts, tri_hosts = [], []
    for i, j in pairs.tolist():
        contact, circle = sphere_pair_contact_or_circle(
            pts[i], radii[i], pts[j], radii[j], (i, j),
            sample_set.tol_unique, tol)
        if contact is not None:
            tri_pts.append(contact[None, :])
            tri_hosts.append((i, j, -1))
        elif circle is not None:
            c, rho = circle.center, circle.radius
            status = _classify_circle(circle, sample_set,
                                      grid.query_bbox(c - rho, c + rho))
            if status is not None:                # cut: resolved below
                cache.add_circles(circle.center, [circle.radius],
                                  circle.normal, [circle.hosts], [status],
                                  signs)

    # triple points of the raster-nominated triples, batched per pair
    starts = np.flatnonzero(np.diff(triples[:, 0] * n + triples[:, 1],
                                    prepend=-1))
    bounds = np.append(starts, len(triples)).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        i, j = triples[a, :2].tolist()
        ks = triples[a:b, 2]
        got, rows = triple_points_batch(pts[i], radii[i], pts[j], radii[j],
                                        pts[ks], radii[ks], tol)
        order = np.argsort(rows, kind="stable")    # per-triple order
        tri_pts.append(got[order])
        tri_hosts.extend((i, j, k) for k in ks[rows[order]].tolist())
    if tri_pts:
        add_uncovered(np.vstack(tri_pts),
                      np.array(tri_hosts, dtype=np.intp).reshape(-1, 3))
    circ = cache._circ
    cache.resolve_cut_circles(np.flatnonzero(circ.status[:circ.n] == _CUT))
    return cache


# largest set nominated exhaustively by ensure_cache.  On exact sphere
# samples in 3D, exhaustive nomination takes 6.3 ms against 8.4 ms for the
# raster at 12 samples and 13 against 8.5 ms at 20; in 2D it wins up to
# about 100 samples.
_EXHAUSTIVE_MAX = 12


def ensure_cache(sample_set: SampleSet, cache=None) -> IntersectionCache:
    """``cache`` if given, else a fresh cache of the set; sets of at most
    _EXHAUSTIVE_MAX samples are nominated exhaustively."""
    if cache is not None:
        return cache
    return build_cache(sample_set,
                       exhaustive=len(sample_set) <= _EXHAUSTIVE_MAX)


def update_cache_on_insert(cache: IntersectionCache, sample_set: SampleSet,
                           new) -> IntersectionCache:
    """Bring the cache up to date after ``sample_set`` gained one sample.
    ``new`` is the appended row index (or the SignedSample itself, which must
    match the last row).  Equivalent to a rebuild from scratch (up to
    ordering)."""
    if isinstance(new, (int, np.integer)):
        new_index = int(new)
    else:
        new_index = len(sample_set) - 1
        if (np.linalg.norm(sample_set.points[new_index] - new.point)
                > sample_set.tol_unique
                or sample_set.values[new_index] != new.value):
            raise ValueError("sample does not match the last appended row")
    if new_index != cache.n_synced or new_index != len(sample_set) - 1:
        raise ValueError("cache out of sync with sample set")
    tol = sample_set.tol_geom
    signs = sample_set.signs
    pts = sample_set.points
    radii = sample_set.radii
    p = pts[new_index]
    r = radii[new_index]

    # old points newly swallowed by the inserted ball
    cache.remove_points_in_ball(p, r, tol)

    # every ball that reaches the new sphere; as a ball that reaches a
    # circle on the new sphere reaches the new ball's box, this is also the
    # candidate set of every new circle and of its third spheres
    neighbors = cache.grid.query_bbox(p - r, p + r)
    cache.grid.insert_balls(p, r)
    cache.n_synced = len(sample_set)

    if sample_set.dim == 2:
        if neighbors.size:
            qpts, rows = pair_points_2d_batch(
                np.broadcast_to(p, (neighbors.size, 2)),
                np.full(neighbors.size, r),
                pts[neighbors], radii[neighbors],
                sample_set.tol_unique, tol)
            if qpts.shape[0]:
                hosts = np.column_stack([neighbors[rows],
                                         np.full(rows.size, new_index),
                                         np.full(rows.size, -1)])
                keep = grid_points_uncovered(qpts, sample_set, cache.grid,
                                             hosts=hosts)
                cache.add_points(qpts[keep], hosts[keep], signs)
        return cache

    # 3D: re-classify only the circles the new ball can reach
    swallowed, cut = cache.circles_touched_by_ball(p, r, tol)
    cache.drop_circles(swallowed)
    _insert_features_3d(cache, sample_set, new_index, neighbors, cut)
    return cache


def _insert_features_3d(cache, sample_set, new, neighbors, cut):
    """The cache write of a 3D insert, each step one array pass over all
    pairs: the new sphere ``new`` against every neighbour (contact or
    circle), the status of the new circles and of the ``cut`` rows against
    their candidate balls, the triple points of each new circle with every
    neighbour that reaches it, and one coverage test.  Points and circles
    are appended by neighbour, one circle's points in the order of
    triple_points_batch."""
    tol = sample_set.tol_geom
    pts = sample_set.points
    radii = sample_set.radii
    p, r = pts[new], radii[new]
    contact, circle, mid, rho, normal = pair_contacts_and_circles(
        p, r, pts[neighbors], radii[neighbors], sample_set.tol_unique, tol)
    at = np.flatnonzero(circle)             # neighbour position per circle
    # (circle, candidate ball) rows: the new circles against the
    # neighbours, the cut circles against every ball near any of them
    c = cache._circ
    centers = np.vstack([mid[at], c.center[cut]])
    normals = np.vstack([normal[at], c.normal[cut]])
    rhos = np.concatenate([rho[at], c.radius[cut]])
    hosts = np.vstack([np.column_stack([neighbors[at],
                                        np.full(at.size, new)]),
                       c.hosts[cut]])
    near = np.empty(0, dtype=np.intp)
    if cut.size:
        reach = c.radius[cut][:, None]
        near = cache.grid.query_bbox((c.center[cut] - reach).min(axis=0),
                                     (c.center[cut] + reach).max(axis=0))
    ci = np.concatenate([np.repeat(np.arange(at.size), neighbors.size),
                         np.repeat(np.arange(at.size, len(rhos)), near.size)])
    ball = np.concatenate([np.tile(neighbors, at.size),
                           np.tile(near, cut.size)])
    keep = (ball != hosts[ci, 0]) & (ball != hosts[ci, 1])
    ci, ball = ci[keep], ball[keep]
    dmin, dmax = point_to_circle_distances(pts[ball], centers[ci],
                                           normals[ci], rhos[ci])
    rb = radii[ball]
    status = np.where(np.bincount(ci[dmin < rb - tol], minlength=len(rhos)),
                      _CUT, _FULL)
    status[np.bincount(ci[dmax < rb - tol], minlength=len(rhos)) > 0] = -1

    # triple points of every new circle with each neighbour reaching it
    t = np.flatnonzero((ci < at.size) & (dmin < rb + tol))
    j = neighbors[at[ci[t]]]
    tri, src = triple_points_batch(p, r, pts[j], radii[j], pts[ball[t]],
                                   radii[ball[t]], tol)
    js, ks = j[src], ball[t][src]
    order = np.argsort(np.concatenate([np.flatnonzero(contact),
                                       at[ci[t][src]]]), kind="stable")
    new_pts = np.vstack([mid[contact], tri])[order]
    new_hosts = np.vstack([
        np.column_stack([neighbors[contact], np.full(contact.sum(), new),
                         np.full(contact.sum(), -1)]),
        np.column_stack([np.minimum(js, ks), np.maximum(js, ks),
                         np.full(ks.size, new)])])[order]
    if new_pts.shape[0]:
        # dedupe triples discovered through two different circles, keeping
        # the first: key = (hosts, point rounded to tol).  A stable lexsort
        # puts each key's first row ahead; np.unique(axis=0) finds the same
        # rows through a structured view, about 4x slower on 40 rows
        keys = np.column_stack([new_hosts,
                                np.round(new_pts / tol).astype(np.int64)])
        by_key = np.lexsort(keys.T[::-1])
        keys = keys[by_key]
        first = np.sort(by_key[np.append(True, (keys[1:] != keys[:-1])
                                         .any(axis=1))])
        new_pts, new_hosts = new_pts[first], new_hosts[first]
        keep = grid_points_uncovered(new_pts, sample_set, cache.grid,
                                     hosts=new_hosts)
        cache.add_points(new_pts[keep], new_hosts[keep], sample_set.signs)

    # the cut rows take their new status and the new circles are appended;
    # the cut ones of both are then resolved against the cached points
    old = status[at.size:]
    c.status[cut[old >= 0]] = old[old >= 0]
    cache.drop_circles(cut[old < 0])
    born = np.flatnonzero(status[:at.size] >= 0)
    rows = cache.add_circles(centers[born], rhos[born], normals[born],
                             hosts[born], status[born], sample_set.signs)
    cache.resolve_cut_circles(np.concatenate([cut[old == _CUT],
                                              rows[status[born] == _CUT]]))


# ---------------------------------------------------------------------------
# culling
# ---------------------------------------------------------------------------

def cull_to_kappa(sample_set: SampleSet, cells, kappa):
    """Remove spheres until every cell keeps at most kappa relevant spheres,
    dropping the largest sphere of the currently worst cell first.

    ``cells`` must have ``relevant`` (index arrays into sample_set) and
    ``index`` (tuple, for deterministic tie-breaks).  Returns
    (culled SampleSet, removed indices, old->new index map).
    """
    n = len(sample_set)
    radii = sample_set.radii
    retained = np.ones(n, dtype=bool)
    removed = []
    if kappa is not None and np.isfinite(kappa) and cells:
        relevant = [np.asarray(c.relevant, dtype=np.intp) for c in cells]
        counts = np.array([len(rv) for rv in relevant])
        sphere_cells = defaultdict(list)
        for ci, rv in enumerate(relevant):
            for k in rv:
                sphere_cells[int(k)].append(ci)
        cell_order = sorted(range(len(cells)), key=lambda ci: cells[ci].index)
        while True:
            worst = counts.max(initial=0)
            if worst <= kappa:
                break
            pick = next(ci for ci in cell_order if counts[ci] == worst)
            members = relevant[pick]
            members = members[retained[members]]
            big = members[np.argmax(radii[members])]
            retained[big] = False
            removed.append(int(big))
            for ci in sphere_cells[int(big)]:
                counts[ci] -= 1
    culled, index_map = sample_set.subset(np.nonzero(retained)[0])
    return culled, removed, index_map
