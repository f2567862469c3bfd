"""Narrow-band completion of a refined DOS and mesh extraction.

The finest refinement level lives on a uniform fine lattice but has holes
where cells stopped being interesting early.  Missing corners of any cell
that straddles the target level set are filled with the minimum valid
radius (independently per point, which keeps the joint result valid), and
the completed sparse band goes to marching squares/cubes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import SdfError, TOL_GEOM
from .interp import freeze_cache_for_queries
from ._mc_tables import CORNERS, EDGE_CORNERS, EDGE_TABLE, TRI_TABLE


class MeshHoleError(SdfError):
    """A level-set-straddling marching cell is missing corner samples."""

    def __init__(self, cells):
        super().__init__(f"incomplete straddling marching cells: {cells[:8]}"
                         + ("..." if len(cells) > 8 else ""))
        self.cells = cells


@dataclass
class NarrowBand:
    """Sparse fine-lattice samples around one level set."""

    dim: int
    resolution: tuple
    origin: np.ndarray          # position of fine index (0, ..., 0)
    spacing: float
    iso: float
    values: dict                # fine index tuple -> value
    filled: set = field(default_factory=set)   # indices assigned s*

    def point_of(self, idx):
        return self.origin + self.spacing * np.asarray(idx, dtype=np.float64)


@dataclass
class Mesh:
    vertices: np.ndarray        # (nv, d)
    elements: np.ndarray        # (ne, 2) segments or (ne, 3) triangles
    dim: int
    provenance: list = field(default_factory=list)   # marching cell per element

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]


def complete_narrow_band(dos, iso: float = 0.0, workers: int = 1) -> NarrowBand:
    """Gather the fine-lattice samples near the iso level set, computing the
    minimum valid radius for every lattice point the refinement skipped.

    The band is all fine cells whose value is within one fine-cell diagonal
    of the level, dilated by one cell so every straddling marching cell ends
    up complete.
    """
    from .repair import parallel_min_valid_radius

    tau = dos.refined_depth
    factor = 2 ** tau
    h = dos.grid.spacing
    hf = h / factor
    dim = dos.grid.dim
    fine_res = tuple(r * factor for r in dos.grid.resolution)
    fine_origin = dos.grid.origin - 0.5 * h + 0.5 * hf
    delta_f = hf * np.sqrt(dim)
    delta_0 = h * np.sqrt(dim)

    def keys(idx):          # fine indices -> flat keys of the fine lattice
        return np.ravel_multi_index(tuple(np.reshape(idx, (-1, dim)).T),
                                    fine_res)

    def fill(key):          # s* at the fine points of the keys
        idx = np.column_stack(np.unravel_index(key, fine_res))
        return parallel_min_valid_radius(fine_origin + hf * idx, dos.working,
                                         freeze_cache_for_queries(dos.cache),
                                         workers=workers)

    # coarse prefilter: only root cells whose center value allows the level
    # set (or the dilated band) to enter them
    reach = 0.5 * delta_0 + 2.0 * delta_f + TOL_GEOM
    roots = list(dos.levels[0].items())
    near = np.abs(np.array([c.value for _, c in roots]) - iso) <= reach
    root_idx = np.array([i for i, _ in roots], dtype=np.intp).reshape(-1, dim)
    block = np.indices((factor,) * dim).reshape(dim, -1).T
    cand = (root_idx[near][:, None, :] * factor + block).reshape(-1, dim)
    key = keys(cand)

    # populated points keep their values, the others get s*
    fine = [c for c in dos.levels[tau].values() if c.sample_index >= 0]
    pop_key = keys(np.array([c.index for c in fine], dtype=np.intp))
    order = np.argsort(pop_key)
    filled = ~np.isin(key, pop_key)
    val = np.empty(key.size)
    val[~filled] = np.array([c.value for c in fine], dtype=np.float64)[
        order[np.searchsorted(pop_key, key[~filled], sorter=order)]]
    if filled.any():
        val[filled] = fill(key[filled])

    # the core, dilated by one cell inside the lattice; its new points get s*
    core = cand[np.abs(val - iso) < delta_f]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))
    nb = (core[:, None, :] + offsets).reshape(-1, dim)
    band = np.unique(keys(nb[((nb >= 0) & (nb < fine_res)).all(axis=1)]))
    extra = np.setdiff1d(band, key)
    if extra.size:
        key, val = np.r_[key, extra], np.r_[val, fill(extra)]
        filled = np.r_[filled, np.ones(extra.size, dtype=bool)]

    kept = np.isin(key, band)
    idx = list(map(tuple, np.column_stack(np.unravel_index(
        key[kept], fine_res)).tolist()))
    return NarrowBand(dim=dim, resolution=fine_res, origin=fine_origin,
                      spacing=hf, iso=iso,
                      values=dict(zip(idx, val[kept].tolist())),
                      filled={i for i, f in zip(idx, filled[kept]) if f})


def band_from_values(values, resolution, origin, spacing, iso=0.0,
                     dim=None) -> NarrowBand:
    """Wrap a plain index->value mapping (or a full array) as a NarrowBand."""
    if dim is None:
        dim = len(resolution)
    if isinstance(values, np.ndarray):
        arr = values.reshape(tuple(reversed(resolution)))
        values = {}
        for idx in itertools.product(*[range(r) for r in resolution]):
            values[idx] = float(arr[tuple(reversed(idx))])
    return NarrowBand(dim=dim, resolution=tuple(resolution),
                      origin=np.asarray(origin, dtype=np.float64),
                      spacing=float(spacing), iso=iso, values=dict(values))


# ---------------------------------------------------------------------------
# marching squares (2D)
# ---------------------------------------------------------------------------

# corner offsets, counterclockwise from the cell base
_MS_CORNERS = [(0, 0), (1, 0), (1, 1), (0, 1)]
# edge id -> (corner a, corner b, lattice axis, base offset)
_MS_EDGES = {
    0: (0, 1, 0, (0, 0)),   # bottom
    1: (1, 2, 1, (1, 0)),   # right
    2: (3, 2, 0, (0, 1)),   # top
    3: (0, 3, 1, (0, 0)),   # left
}
# case -> oriented segments (from edge, to edge); inside (< iso) on the left
_MS_SEGMENTS = {
    0: [], 15: [],
    1: [(0, 3)], 2: [(1, 0)], 3: [(1, 3)], 4: [(2, 1)],
    6: [(2, 0)], 7: [(2, 3)], 8: [(3, 2)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}


def _ms_case_segments(case, center_inside):
    if case == 5:      # corners 0 and 2 inside (saddle)
        return [(2, 3), (0, 1)] if center_inside else [(0, 3), (2, 1)]
    if case == 10:     # corners 1 and 3 inside (saddle)
        return [(3, 0), (1, 2)] if center_inside else [(1, 0), (3, 2)]
    return _MS_SEGMENTS[case]


def _collect_cells(band, iso):
    """Complete marching cells plus incomplete-but-straddling ones.  Corner
    values are gathered in the case-table corner order."""
    dim = band.dim
    offsets = _MS_CORNERS if dim == 2 else CORNERS
    res = band.resolution
    bases = set()
    for idx in band.values:
        for off in offsets:
            base = tuple(i - o for i, o in zip(idx, off))
            if all(0 <= b < r - 1 for b, r in zip(base, res)):
                bases.add(base)
    complete = []
    holes = []
    for base in sorted(bases):
        corner_vals = []
        n_present = 0
        straddle_lo = straddle_hi = False
        for off in offsets:
            c = tuple(b + o for b, o in zip(base, off))
            v = band.values.get(c)
            corner_vals.append(v)
            if v is not None:
                n_present += 1
                if v < iso:
                    straddle_lo = True
                else:
                    straddle_hi = True
        if n_present == len(offsets):
            complete.append((base, corner_vals))
        elif straddle_lo and straddle_hi:
            holes.append(base)
    return complete, holes


def extract_mesh(band: NarrowBand, iso=None) -> Mesh:
    """Marching squares / marching cubes over the band's fine lattice with
    linear edge interpolation and deterministic vertex welding.

    A corner with value exactly equal to iso counts as outside.  2D saddles
    are decided by the corner average (a stand-in for the cell-center
    sample).  Raises MeshHoleError when a straddling cell misses corners.
    """
    if iso is None:
        iso = band.iso
    complete, holes = _collect_cells(band, iso)
    if holes:
        raise MeshHoleError(holes)
    verts = []
    vert_ids = {}
    elements = []
    provenance = []

    def vertex_on_edge(base, axis, va, vb):
        key = (base, axis)
        vid = vert_ids.get(key)
        if vid is None:
            t = (iso - va) / (vb - va)
            t = min(max(t, 0.0), 1.0)
            pos = band.point_of(base)
            pos = pos.copy()
            pos[axis] += t * band.spacing
            vid = len(verts)
            verts.append(pos)
            vert_ids[key] = vid
        return vid

    if band.dim == 2:
        for base, cv in complete:
            case = 0
            for k in range(4):
                if cv[k] < iso:
                    case |= 1 << k
            if case in (0, 15):
                continue
            center_inside = (sum(cv) / 4.0) < iso
            for e_from, e_to in _ms_case_segments(case, center_inside):
                seg = []
                for e in (e_from, e_to):
                    ca, cb, axis, boff = _MS_EDGES[e]
                    ebase = tuple(b + o for b, o in zip(base, boff))
                    seg.append(vertex_on_edge(ebase, axis, cv[ca], cv[cb]))
                if seg[0] != seg[1]:
                    elements.append(seg)
                    provenance.append(base)
        elements = (np.asarray(elements, dtype=np.intp)
                    if elements else np.empty((0, 2), dtype=np.intp))
    else:
        for base, cv in complete:
            cubeindex = 0
            for k in range(8):
                if cv[k] < iso:
                    cubeindex |= 1 << k
            if EDGE_TABLE[cubeindex] == 0:
                continue
            edge_vid = {}
            for e in range(12):
                if EDGE_TABLE[cubeindex] & (1 << e):
                    a, b = EDGE_CORNERS[e]
                    off_a = CORNERS[a]
                    off_b = CORNERS[b]
                    axis = next(ax for ax in range(3)
                                if off_a[ax] != off_b[ax])
                    lo_off = off_a if off_a[axis] < off_b[axis] else off_b
                    ebase = tuple(bb + o for bb, o in zip(base, lo_off))
                    va = cv[a] if off_a == lo_off else cv[b]
                    vb = cv[b] if off_a == lo_off else cv[a]
                    edge_vid[e] = vertex_on_edge(ebase, axis, va, vb)
            tri = TRI_TABLE[cubeindex]
            for k in range(0, len(tri), 3):
                ids = (edge_vid[tri[k]], edge_vid[tri[k + 1]],
                       edge_vid[tri[k + 2]])
                if len(set(ids)) == 3:
                    elements.append(ids)
                    provenance.append(base)
        elements = (np.asarray(elements, dtype=np.intp)
                    if elements else np.empty((0, 3), dtype=np.intp))

    vertices = (np.asarray(verts)
                if verts else np.empty((0, band.dim)))
    # when the iso level passes exactly through a corner, distinct welded
    # vertices can coincide; drop the zero-measure elements this produces
    if elements.shape[0]:
        if band.dim == 2:
            size = np.linalg.norm(vertices[elements[:, 1]]
                                  - vertices[elements[:, 0]], axis=1)
        else:
            size = 0.5 * np.linalg.norm(
                np.cross(vertices[elements[:, 1]] - vertices[elements[:, 0]],
                         vertices[elements[:, 2]] - vertices[elements[:, 0]]),
                axis=1)
        keep = size > TOL_GEOM ** (1 if band.dim == 2 else 2)
        elements = elements[keep]
        provenance = [provenance[k] for k in np.nonzero(keep)[0]]
    return Mesh(vertices=vertices, elements=elements, dim=band.dim,
                provenance=provenance)


def boundary_edges(mesh: Mesh):
    """Element edges used an odd number of times (2D: endpoint degree
    imbalance; 3D: triangle edges on one triangle only).  Empty means
    watertight."""
    if mesh.dim == 2:
        from collections import Counter
        deg = Counter()
        for a, b in mesh.elements:
            deg[int(a)] += 1
            deg[int(b)] -= 1
        return [v for v, c in deg.items() if c != 0]
    from collections import Counter
    count = Counter()
    for tri in mesh.elements:
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            count[(min(a, b), max(a, b))] += 1
    return [e for e, c in count.items() if c % 2 == 1]
