"""Low-level sphere geometry: pair/triple intersections, intersection
circles, coverage tests and the exact per-sphere uncovered-point decision,
which reads the intersection cache of ``accel``.

All predicates are tolerance-inclusive: a point sitting on a sphere boundary
(within ``tol_geom``) counts as *not* strictly inside the corresponding ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TOL_GEOM,
    TOL_UNIQUE,
    DegenerateGeometryError,
    SampleSet,
)


@dataclass
class IntersectionCircle:
    """Circle where two sphere surfaces meet (3D only).

    ``center``/``radius`` describe the circle, ``normal`` is the unit axis
    direction, ``hosts`` the index pair of the source spheres.
    """

    center: np.ndarray
    radius: float
    normal: np.ndarray
    hosts: tuple


# ---------------------------------------------------------------------------
# pairwise intersections
# ---------------------------------------------------------------------------

def sphere_pair_circle_3d(c1, r1, c2, r2, hosts=(0, 1), tol_unique=TOL_UNIQUE,
                          tol_geom=TOL_GEOM):
    """Intersection circle of two sphere surfaces, or None.

    Tangency (single shared point) deliberately yields None; tangent contact
    points are produced separately so no zero-radius circles exist.
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    delta = c2 - c1
    d = float(np.linalg.norm(delta))
    if d <= tol_unique:
        if abs(r1 - r2) <= tol_geom:
            raise DegenerateGeometryError(
                "coincident spheres intersect everywhere")
        return None
    if d >= r1 + r2 - tol_geom:        # disjoint or externally tangent
        return None
    if d <= abs(r1 - r2) + tol_geom:   # nested or internally tangent
        return None
    u = delta / d
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    rho_sq = r1 * r1 - a * a
    if rho_sq <= 0.0:
        return None
    return IntersectionCircle(center=c1 + a * u, radius=float(np.sqrt(rho_sq)),
                              normal=u, hosts=tuple(hosts))


def sphere_pair_contact_point(c1, r1, c2, r2, tol_unique=TOL_UNIQUE,
                              tol_geom=TOL_GEOM):
    """Tangency point of two sphere surfaces, or None if they are not tangent
    within tol_geom.  Works in any dimension."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    delta = c2 - c1
    d = float(np.linalg.norm(delta))
    if d <= tol_unique:
        return None
    if abs(d - (r1 + r2)) <= tol_geom or abs(d - abs(r1 - r2)) <= tol_geom:
        u = delta / d
        a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
        return c1 + a * u
    return None


def sphere_pair_contact_or_circle(c1, r1, c2, r2, hosts=(0, 1),
                                  tol_unique=TOL_UNIQUE, tol_geom=TOL_GEOM):
    """Where two sphere surfaces meet: (contact point, None) when they are
    tangent, (None, IntersectionCircle) when they cross, and (None, None)
    when they miss each other or share a center."""
    contact = sphere_pair_contact_point(c1, r1, c2, r2, tol_unique, tol_geom)
    if contact is not None:
        return contact, None
    try:
        return None, sphere_pair_circle_3d(c1, r1, c2, r2, hosts, tol_unique,
                                           tol_geom)
    except DegenerateGeometryError:     # coincident spheres
        return None, None


def rowdot(a, b):
    """Dot products over the last axis, row by row (either side may be one
    vector for all rows).  Each row is one np.matmul of a 1x3 by a 3x1 block,
    which runs the dot kernel of the scalar np.dot on that row alone; a BLAS
    matrix-vector product may round a row differently depending on how many
    rows the batch holds."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def pair_contacts_and_circles(c1, r1, c2s, r2s, tol_unique=TOL_UNIQUE,
                              tol_geom=TOL_GEOM):
    """sphere_pair_contact_or_circle of sphere (c1, r1) with each sphere
    (c2s, r2s), row by row and bit for bit.  Returns (contact (m,), circle
    (m,), point (m, 3), rho (m,), normal (m, 3)): ``point`` is the contact
    point of a contact row and the circle center of a circle row, ``rho`` the
    circle radius (0 elsewhere)."""
    delta = c2s - c1
    d = np.sqrt(rowdot(delta, delta))
    apart = d > tol_unique
    d_safe = np.where(apart, d, 1.0)
    u = delta / d_safe[:, None]
    a = (r1 * r1 - r2s * r2s + d * d) / (2.0 * d_safe)
    contact = apart & ((np.abs(d - (r1 + r2s)) <= tol_geom)
                       | (np.abs(d - np.abs(r1 - r2s)) <= tol_geom))
    rho_sq = r1 * r1 - a * a
    circle = (apart & ~contact & (d < r1 + r2s - tol_geom)
              & (d > np.abs(r1 - r2s) + tol_geom) & (rho_sq > 0.0))
    return (contact, circle, c1 + a[:, None] * u,
            np.sqrt(np.where(circle, rho_sq, 0.0)), u)


def triple_points_batch(c1, r1, c2, r2, c3s, r3s, tol_geom=TOL_GEOM):
    """Common points of three sphere surfaces by trilateration, row by row:
    the pair (c1, r1), (c2, r2), one for all rows or one per row, against
    each third sphere (c3s, r3s).  Returns (points (m, 3), source row (m,)):
    a double root (within tolerance) gives one point, a crossing two; rows
    whose pair shares a center or whose centers are collinear give none.
    Points come as the double roots, then the +z and then the -z points,
    each in row order.  Every row is computed on its own, so it does not
    depend on the other rows of the batch."""
    c3s = np.atleast_2d(np.asarray(c3s, dtype=np.float64))
    r3s = np.asarray(r3s, dtype=np.float64).ravel()
    c1 = np.asarray(c1, dtype=np.float64)
    ex = np.asarray(c2, dtype=np.float64) - c1      # (3,) or (m, 3)
    d = np.sqrt(rowdot(ex, ex))
    ok = d > tol_geom
    d_safe = np.where(ok, d, 1.0)
    ex = ex / d_safe[..., None]
    to3 = c3s - c1
    i = rowdot(to3, ex)
    ey = to3 - i[:, None] * ex
    j = np.linalg.norm(ey, axis=1)
    ok = ok & (j > tol_geom)
    j_safe = np.where(ok, j, 1.0)
    ey = ey / j_safe[:, None]
    ez = np.empty_like(ey)
    ez[:, 0] = ex[..., 1] * ey[:, 2] - ex[..., 2] * ey[:, 1]
    ez[:, 1] = ex[..., 2] * ey[:, 0] - ex[..., 0] * ey[:, 2]
    ez[:, 2] = ex[..., 0] * ey[:, 1] - ex[..., 1] * ey[:, 0]
    x = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d_safe)
    y = (r1 * r1 - r3s * r3s + i * i + j * j) / (2.0 * j_safe) \
        - (i / j_safe) * x
    z_sq = r1 * r1 - x * x - y * y
    tol_z = 2.0 * np.maximum(np.maximum(r1, r2), np.maximum(r3s, 1.0)) \
        * tol_geom
    mid = c1 + x[..., None] * ex + y[:, None] * ey
    double = np.flatnonzero(ok & (np.abs(z_sq) <= tol_z))
    two = np.flatnonzero(ok & (z_sq > tol_z))
    z = np.sqrt(z_sq[two])[:, None] * ez[two]
    return (np.vstack([mid[double], mid[two] + z, mid[two] - z]),
            np.concatenate([double, two, two]))


def circle_reference_points(centers, normals, radii):
    """A deterministic point on each circle (rows of centers, unit normals
    and radii), used when the closest/farthest direction is degenerate.
    Picks the lexicographically smaller of the two unit directions spanned
    by the first canonical axis not parallel to the circle normal."""
    m = normals.shape[0]
    axis = np.zeros((m, 3))
    axis[np.arange(m), np.argmin(np.abs(normals), axis=1)] = 1.0
    e = np.cross(axis, normals)
    e = e / np.sqrt(rowdot(e, e))[:, None]
    # -e is the smaller one when the first nonzero component of e is positive
    first = e[np.arange(m), np.argmax(e != 0.0, axis=1)]
    e = np.where((first > 0.0)[:, None], -e, e)
    return centers + radii[:, None] * e


def point_to_circle_distances(points, center, normal, radius):
    """(min, max) distances from each point to a circle as a set, row by
    row: center, normal and radius describe one circle or one per point."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = points - center
    along = rowdot(v, normal)
    u = v - along[:, None] * normal
    nu = np.linalg.norm(u, axis=1)
    dmin = np.sqrt((nu - radius) ** 2 + along ** 2)
    dmax = np.sqrt((nu + radius) ** 2 + along ** 2)
    return dmin, dmax


def circle_triple_points(c1, r1, c2, r2, circle, third, sample_set):
    """Triple points of the circle where spheres (c1, r1) and (c2, r2) meet
    with each sphere of ``third`` (sample indices) whose closed ball reaches
    the circle.

    Returns (points (m, 3), third-sphere index of each point (m,), cut).
    ``cut`` tells whether some ball interior of ``third`` cuts the circle;
    the coverage of an uncut circle is uniform, so one probe decides it.
    """
    tol = sample_set.tol_geom
    third = np.asarray(third, dtype=np.intp)
    if third.size == 0:
        return np.empty((0, 3)), np.empty((0,), dtype=np.intp), False
    dmin, _ = point_to_circle_distances(sample_set.points[third],
                                        circle.center, circle.normal,
                                        circle.radius)
    rk = sample_set.radii[third]
    cut = bool(np.any(dmin < rk - tol))
    touch = third[dmin < rk + tol]
    if touch.size == 0:
        return np.empty((0, 3)), np.empty((0,), dtype=np.intp), cut
    pts, rows = triple_points_batch(c1, r1, c2, r2, sample_set.points[touch],
                                    sample_set.radii[touch], tol)
    return pts, touch[rows], cut


def pair_candidate_points_3d(c1, r1, c2, r2, third, sample_set):
    """Candidate uncovered points where spheres (c1, r1) and (c2, r2) meet:
    their tangent contact, or the triple points of their circle with the
    ``third`` spheres plus, when no ball cuts the circle, its reference
    point.  Returns (points (m, 3), third sphere of each point (m,), -1 for
    the contact and the reference point)."""
    contact, circle = sphere_pair_contact_or_circle(
        c1, r1, c2, r2, tol_unique=sample_set.tol_unique,
        tol_geom=sample_set.tol_geom)
    if contact is not None:
        return contact[None, :], np.full(1, -1, dtype=np.intp)
    if circle is None:
        return np.empty((0, 3)), np.empty((0,), dtype=np.intp)
    pts, ks, cut = circle_triple_points(c1, r1, c2, r2, circle, third,
                                        sample_set)
    if cut:
        return pts, ks
    ref = circle_reference_points(circle.center[None, :],
                                  circle.normal[None, :],
                                  np.array([circle.radius]))
    return np.vstack([pts, ref]), np.append(ks, -1)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def points_uncovered(points, sample_set: SampleSet, exclude=None,
                     indices=None, hosts=None):
    """Vectorized coverage test: for each query point, True iff it is not
    strictly inside any (non-excluded) sample ball.  Boundary points count
    as uncovered.  ``hosts`` optionally gives each point's host spheres, an
    (m, k) index array padded with -1: a point lies on its hosts' surfaces,
    so it is never covered by them."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    idx = np.arange(len(sample_set)) if indices is None \
        else np.asarray(indices, dtype=np.intp)
    if exclude is not None and len(exclude) > 0:
        idx = idx[~np.isin(idx, np.asarray(list(exclude), dtype=np.intp))]
    if idx.size == 0 or points.shape[0] == 0:
        return np.ones(points.shape[0], dtype=bool)
    d = np.linalg.norm(points[:, None, :] - sample_set.points[idx][None, :, :],
                       axis=2)
    inside = d < (sample_set.radii[idx][None, :] - sample_set.tol_geom)
    if hosts is not None:
        inside &= ~(np.asarray(hosts)[:, :, None] == idx).any(axis=1)
    return ~np.any(inside, axis=1)


def point_uncovered(q, sample_set: SampleSet, exclude=None, indices=None):
    """True iff q is not strictly inside any non-excluded sample ball."""
    return bool(points_uncovered(np.asarray(q)[None, :], sample_set,
                                 exclude=exclude, indices=indices)[0])


def probe_point(center, radius):
    """Canonical surface probe: center + radius along the first axis."""
    q = np.array(center, dtype=np.float64)
    q[0] += radius
    return q


# ---------------------------------------------------------------------------
# batch pair intersection (2D)
# ---------------------------------------------------------------------------

def pair_points_2d_batch(c1, r1, c2, r2, tol_unique=TOL_UNIQUE,
                         tol_geom=TOL_GEOM):
    """Vectorized circle-circle intersection over m pairs.

    Returns (points (k, 2), row (k,)) where row maps each output point back
    to its input pair.  Tangencies contribute one point, transversal pairs
    two; coincident-center pairs contribute nothing.
    """
    c1 = np.atleast_2d(c1)
    c2 = np.atleast_2d(c2)
    r1 = np.asarray(r1, dtype=np.float64).ravel()
    r2 = np.asarray(r2, dtype=np.float64).ravel()
    delta = c2 - c1
    d = np.linalg.norm(delta, axis=1)
    ok = d > tol_unique
    ext = d - (r1 + r2)
    inn = d - np.abs(r1 - r2)
    tangent = ok & ((np.abs(ext) <= tol_geom) | (np.abs(inn) <= tol_geom))
    cross = ok & ~tangent & (ext < 0.0) & (inn > 0.0)
    pts = []
    rows = []
    d_safe = np.where(ok, d, 1.0)
    u = delta / d_safe[:, None]
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d_safe)
    mid = c1 + a[:, None] * u
    if np.any(tangent):
        idx = np.nonzero(tangent)[0]
        pts.append(mid[idx])
        rows.append(idx)
    if np.any(cross):
        idx = np.nonzero(cross)[0]
        h = np.sqrt(np.maximum(r1[idx] ** 2 - a[idx] ** 2, 0.0))
        perp = np.column_stack([-u[idx, 1], u[idx, 0]])
        pts.append(mid[idx] + h[:, None] * perp)
        pts.append(mid[idx] - h[:, None] * perp)
        rows.append(idx)
        rows.append(idx)
    if not pts:
        return np.empty((0, 2)), np.empty((0,), dtype=np.intp)
    return np.vstack(pts), np.concatenate(rows)


# ---------------------------------------------------------------------------
# per-sphere uncovered decision
# ---------------------------------------------------------------------------

def sphere_has_uncovered_point(i, sample_set: SampleSet, cache=None):
    """Exact decision of validity condition (ii) for sphere i.

    A sphere surface is partitioned by its crossings with other spheres into
    arcs (2D) or patches bounded by circle arcs (3D) of constant coverage;
    the closure of any uncovered piece contains a crossing point, so testing
    crossings (plus probes for crossing-free surfaces/circles) is exact.
    The intersection cache holds exactly those crossings; one is built when
    ``cache`` is None.
    """
    from .accel import ensure_cache
    cache = ensure_cache(sample_set, cache)
    if cache.sphere_point_rows(i):
        return True
    if cache.sphere_has_open_circle(i):
        # an (at least partially) uncovered intersection circle lives on
        # this sphere's surface
        return True
    if cache.sphere_intersects_something(i, sample_set):
        # all of its crossing points are covered
        return False
    return point_uncovered(
        probe_point(sample_set.points[i], sample_set.radii[i]), sample_set)
