"""Output checks computed apart from the program.

Everything here is the benchmark's own numpy/scipy code: it reads the
program's outputs (sample sets, value grids, meshes) and the analytic shape
behind each input, and never calls back into sdfgrow.  A failed check raises
``CheckError``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

TOL = 1e-6           # the program's geometric tolerance on [-1, 1]^d
_CHUNK = 256


class CheckError(AssertionError):
    """An output broke a property the method guarantees."""


def cell_centers(dim, res, lo, hi):
    """Cell centres of a res^dim grid over [lo, hi]^dim, x fastest; spacing
    and origin follow the program's grid convention."""
    h = (hi - lo) / res
    axis = (lo + 0.5 * h) + h * np.arange(res)
    if dim == 2:
        yy, xx = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    else:
        zz, yy, xx = np.meshgrid(axis, axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    return pts, h


def _same_bits(a, b):
    return np.asarray(a, np.float64).view(np.int64) == \
        np.asarray(b, np.float64).view(np.int64)


# ---------------------------------------------------------------------------
# sample-set properties
# ---------------------------------------------------------------------------

def check_pairwise(points, values, what):
    """|s_i - s_j| <= |p_i - p_j| + TOL for every pair, and balls of
    opposite sign do not overlap (touching is allowed)."""
    points = np.asarray(points, np.float64)
    values = np.asarray(values, np.float64)
    radii = np.abs(values)
    neg = values < 0
    n = len(values)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        d = np.sqrt(np.sum((points[a:b, None, :] - points[None, :, :]) ** 2,
                           axis=2))
        gap = np.abs(values[a:b, None] - values[None, :]) - d
        if np.any(gap > TOL):
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            raise CheckError(f"{what}: samples {a + i} and {j} break the "
                             f"Lipschitz bound by {gap[i, j]:.3g}")
        opp = neg[a:b, None] != neg[None, :]
        depth = np.where(opp, radii[a:b, None] + radii[None, :] - d, -np.inf)
        if np.any(depth > TOL):
            i, j = np.unravel_index(np.argmax(depth), depth.shape)
            raise CheckError(f"{what}: opposite-sign balls {a + i} and {j} "
                             f"overlap by {depth[i, j]:.3g}")


def check_refined(inp, working_points, working_values):
    """The refined set keeps every retained input sample bit-identical and
    holds all 2^d children of every cell of depth < tau whose value is below
    half its diagonal, and nothing else."""
    grid = inp.grid
    dim, h, tau = grid.dim, grid.spacing, inp.tau
    pts = np.asarray(working_points, np.float64)
    vals = np.asarray(working_values, np.float64)
    centers, _ = cell_centers(dim, grid.resolution[0], inp.lo, inp.hi)
    unit = h / 2 ** (tau + 1)
    keys = np.rint((pts - inp.lo) / unit).astype(np.int64)
    off = np.max(np.abs(pts - (inp.lo + keys * unit)), initial=0.0)
    if off > 1e-9:
        raise CheckError(f"a refined sample is {off:.3g} off the cell lattice")
    rows = {tuple(k): r for r, k in enumerate(keys.tolist())}
    if len(rows) != len(keys):
        raise CheckError("two refined samples share a cell centre")

    retained = 0
    level = []
    res = grid.resolution[0]
    for flat, idx in enumerate(itertools.product(range(res), repeat=dim)):
        idx = idx[::-1]                      # x fastest
        key = tuple((2 * i + 1) * 2 ** tau for i in idx)
        row = rows.get(key)
        if row is not None:
            retained += 1
            if not (_same_bits(vals[row], grid.values[flat])
                    and np.all(_same_bits(pts[row], centers[flat]))):
                raise CheckError(f"input sample {flat} changed")
        level.append((np.array(idx), float(grid.values[flat])))
    if retained == 0:
        raise CheckError("no input sample retained")

    new = 0
    diag0 = h * np.sqrt(dim)
    for d in range(tau):
        half_diag = 0.5 * (diag0 * 0.5 ** d)
        nxt = []
        for idx, v in level:
            if not abs(v) < half_diag:
                continue
            for offset in itertools.product((0, 1), repeat=dim):
                child = 2 * idx + np.array(offset)
                row = rows.get(tuple(((2 * child + 1) * 2 ** (tau - d - 1))
                                     .tolist()))
                if row is None:
                    raise CheckError(f"depth-{d} cell {tuple(idx)} "
                                     f"(value {v:.4g}) lacks child "
                                     f"{tuple(child)}")
                nxt.append((child, float(vals[row])))
                new += 1
        level = nxt
    if len(vals) != retained + new:
        raise CheckError(f"{len(vals) - retained - new} samples outside the "
                         f"refinement")
    check_pairwise(pts, vals, "refined set")


# ---------------------------------------------------------------------------
# the analytic shape
# ---------------------------------------------------------------------------

def _sphere_points(center, radius, n):
    dim = len(center)
    if dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        dirs = np.column_stack([np.cos(t), np.sin(t)])
    else:
        k = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / n)
        theta = np.pi * (1.0 + np.sqrt(5.0)) * k
        dirs = np.column_stack([np.sin(phi) * np.cos(theta),
                                np.sin(phi) * np.sin(theta), np.cos(phi)])
    return center + radius * dirs


def boundary_samples(shape, per_ball):
    """Points on the boundary of the union of balls: each sphere sampled
    uniformly, minus the points strictly inside another ball."""
    out = []
    for i, (c, r) in enumerate(zip(shape.centers, shape.radii)):
        p = _sphere_points(c, r, per_ball)
        keep = np.ones(len(p), dtype=bool)
        for j, (cj, rj) in enumerate(zip(shape.centers, shape.radii)):
            if j != i:
                keep &= np.linalg.norm(p - cj, axis=1) >= rj
        out.append(p[keep])
    return np.vstack(out)


class ShapeDistance:
    """Distance to the union boundary.  Exact for one ball; for several it
    is the distance to a dense boundary sampling (20,000 points per circle,
    40,000 per sphere), which can only overestimate the true distance, by
    about half the sample spacing."""

    def __init__(self, shape):
        self.shape = shape
        per_ball = 20000 if shape.centers.shape[1] == 2 else 40000
        self.tree = None if shape.exact else cKDTree(
            boundary_samples(shape, per_ball))

    def __call__(self, points):
        points = np.atleast_2d(points)
        if self.tree is None:
            c, r = self.shape.centers[0], self.shape.radii[0]
            return np.abs(np.linalg.norm(points - c, axis=1) - r)
        return self.tree.query(points)[0]


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def _segment_distance(p, a, b):
    """(m, k) distances from points p to segments a-b (any dimension)."""
    ab = b - a
    den = np.einsum("kd,kd->k", ab, ab)
    den = np.where(den > 0.0, den, 1.0)
    ap = p[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("mkd,kd->mk", ap, ab) / den, 0.0, 1.0)
    return np.linalg.norm(ap - t[..., None] * ab[None, :, :], axis=2)


def _triangle_distance(p, a, b, c):
    """(m, k) distances from points p to triangles abc: the plane distance
    where the projection falls inside, else the nearest edge."""
    e0, e1 = b - a, c - a
    n = np.cross(e0, e1)
    nn = np.linalg.norm(n, axis=1)
    unit = n / np.where(nn > 0.0, nn, 1.0)[:, None]
    ap = p[:, None, :] - a[None, :, :]
    dp = np.einsum("mkd,kd->mk", ap, unit)
    q = ap - dp[..., None] * unit[None, :, :]
    d00 = np.einsum("kd,kd->k", e0, e0)
    d01 = np.einsum("kd,kd->k", e0, e1)
    d11 = np.einsum("kd,kd->k", e1, e1)
    d20 = np.einsum("mkd,kd->mk", q, e0)
    d21 = np.einsum("mkd,kd->mk", q, e1)
    den = d00 * d11 - d01 * d01
    den = np.where(den > 0.0, den, 1.0)
    v = (d11 * d20 - d01 * d21) / den
    w = (d00 * d21 - d01 * d20) / den
    inside = (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0) & (nn > 0.0)
    edges = np.minimum(np.minimum(_segment_distance(p, a, b),
                                  _segment_distance(p, b, c)),
                       _segment_distance(p, c, a))
    return np.where(inside, np.abs(dp), edges)


def point_mesh_distance(points, vertices, elements):
    points = np.atleast_2d(np.asarray(points, np.float64))
    corners = [vertices[elements[:, k]] for k in range(elements.shape[1])]
    dist = _segment_distance if len(corners) == 2 else _triangle_distance
    out = np.empty(len(points))
    for s in range(0, len(points), _CHUNK):
        out[s:s + _CHUNK] = dist(points[s:s + _CHUNK], *corners).min(axis=1)
    return out


def _element_samples(vertices, elements):
    """Points spread over every mesh element (a 9-point polyline sampling
    or a 15-point barycentric lattice)."""
    if elements.shape[1] == 2:
        t = np.linspace(0.0, 1.0, 9)[:, None, None]
        a, b = vertices[elements[:, 0]], vertices[elements[:, 1]]
        return (a[None] + t * (b - a)[None]).reshape(-1, vertices.shape[1])
    bary = np.array([(i, j, 4 - i - j) for i in range(5)
                     for j in range(5 - i)], np.float64) / 4.0
    tri = vertices[elements]                       # (k, 3, 3)
    return np.einsum("sc,kcd->skd", bary, tri).reshape(-1, 3)


def check_closed(vertices, elements, box_lo, box_hi):
    """Every vertex of a polyline has two segments and every triangle edge
    two triangles, except where the mesh ends on the sampled box."""
    on_face = np.any(np.isclose(vertices, box_lo, atol=1e-9)
                     | np.isclose(vertices, box_hi, atol=1e-9), axis=1)
    if elements.shape[1] == 2:
        open_items = np.nonzero(np.bincount(elements.ravel(),
                                            minlength=len(vertices)) != 2)[0]
        bad = [int(v) for v in open_items if not on_face[v]]
    else:
        edges = np.sort(np.vstack([elements[:, [0, 1]], elements[:, [1, 2]],
                                   elements[:, [2, 0]]]), axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        bad = [tuple(e) for e, k in zip(uniq.tolist(), counts)
               if k != 2 and not (on_face[e[0]] and on_face[e[1]])]
    if len(elements) == 0:
        raise CheckError("empty mesh")
    if bad:
        raise CheckError(f"mesh has {len(bad)} open items inside the "
                         f"sampled box, e.g. {bad[0]}")


def mesh_error(vertices, elements, shape, shape_distance, box_lo, box_hi):
    """Symmetric Hausdorff distance between the mesh and the part of the
    shape boundary inside the sampled box."""
    near = shape_distance(_element_samples(vertices, elements)).max()
    dim = vertices.shape[1]
    ring = boundary_samples(shape, 4096 if dim == 2 else 2048)
    ring = ring[np.all((ring >= box_lo) & (ring <= box_hi), axis=1)]
    far = point_mesh_distance(ring, vertices, elements).max()
    return float(max(near, far))


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def check_repaired(inp, result, shape_distance):
    """Unchanged samples keep their bits; changed ones keep their sign and
    satisfy |old| <= |new| <= d + TOL, d the distance to the union
    boundary; and the repaired grid satisfies the pairwise properties."""
    old = inp.grid.values
    new = result.repaired.values
    listed = {}
    for i, o, n in result.changed:
        listed[int(i)] = (o, n)
    same = _same_bits(old, new)
    for i in np.nonzero(~same)[0]:
        if int(i) not in listed:
            raise CheckError(f"sample {i} changed without being reported")
    centers, _ = cell_centers(inp.grid.dim, inp.grid.resolution[0],
                              inp.lo, inp.hi)
    if listed:
        rows = np.array(sorted(listed))
        o = old[rows]
        n = new[rows]
        if not (np.all(_same_bits([listed[r][0] for r in rows], o))
                and np.all(_same_bits([listed[r][1] for r in rows], n))):
            raise CheckError("reported change disagrees with the grids")
        if np.any((n < 0) != (o < 0)):
            raise CheckError("a repaired sample changed sign")
        if np.any(np.abs(n) < np.abs(o) - 1e-12):
            raise CheckError("a repaired sample shrank")
        d = shape_distance(centers[rows])
        excess = np.abs(n) - d
        if np.any(excess > TOL):
            k = int(np.argmax(excess))
            raise CheckError(f"sample {rows[k]}: |new| {abs(n[k]):.6g} "
                             f"exceeds the boundary distance {d[k]:.6g}")
    check_pairwise(centers, new, "repaired grid")
