"""Adaptive grid refinement with greedy, flood-fill-ordered assignment of new
consistent samples.

Cells whose center value is smaller in magnitude than half the cell diagonal
may contain the surface ("interesting") and are subdivided up to a depth cap;
each new child center receives a value through the consistent interpolation
operator, with the radius capped so neighboring samples can never be
invalidated.  Every assignment immediately joins the working set, so later
assignments stay consistent with earlier ones.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .accel import build_cache, cull_to_kappa, update_cache_on_insert
from .core import InputInvalidError, SampleSet, SdfGrid
from .interp import MODE_REFINE, interpolate_sdf_to
from .validity import check_validity


@dataclass
class DosCell:
    index: tuple
    depth: int
    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    value: float
    sample_index: int          # row in the working set (-1 for culled roots)
    diag: float
    interesting: bool
    relevant: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    covered_ratio: float = None

    def max_child_radius(self):
        """Radius cap for a sphere grown at a child center: it may not bury
        this cell's sphere, and must cover any deeper center displacement."""
        child_diag = 0.5 * self.diag
        return max(abs(self.value) + 0.5 * child_diag, child_diag)


@dataclass
class Dos:
    grid: SdfGrid
    working: SampleSet          # retained input followed by new samples
    cache: object
    levels: list                # levels[d]: dict index -> DosCell
    kappa: float
    n_input_retained: int
    removed: list               # culled original indices
    input_index_map: np.ndarray  # original grid index -> working row (-1 culled)
    new_samples: list = field(default_factory=list)   # (point, value) in order
    new_rows: list = field(default_factory=list)
    refined_depth: int = 0


def _interesting(value, diag):
    return abs(value) < 0.5 * diag


def _cell_relevant(center, max_radius, sample_set, candidates=None):
    """Spheres whose ball can reach the cell's maximal sphere."""
    if candidates is None:
        candidates = np.arange(len(sample_set), dtype=np.intp)
    if candidates.size == 0:
        return candidates
    d = np.linalg.norm(sample_set.points[candidates] - center, axis=1)
    keep = d <= max_radius + sample_set.radii[candidates] + sample_set.tol_geom
    return np.sort(candidates[keep])


def covered_ratio(cell: DosCell, sample_set: SampleSet, indices=None) -> float:
    """Fraction of an 8^d regular lattice of cell points strictly inside any
    relevant ball."""
    idx = cell.relevant if indices is None else np.asarray(indices, np.intp)
    if idx.size == 0:
        return 0.0
    dim = sample_set.dim
    steps = (np.arange(8) + 0.5) / 8.0
    centers = sample_set.points[idx]
    # squared distances summed axis by axis over the tensor-product lattice,
    # in the order of np.linalg.norm over the coordinates
    sq = 0.0
    for a in range(dim):
        off = cell.lo[a] + steps * (cell.hi[a] - cell.lo[a])
        off = off[:, None] - centers[:, a]                  # (8, balls)
        shape = [1] * dim + [idx.size]
        shape[a] = 8
        sq = sq + (off * off).reshape(shape)
    inside = np.any(np.sqrt(sq) < sample_set.radii[idx] - sample_set.tol_geom,
                    axis=-1)
    return float(np.count_nonzero(inside)) / 8 ** dim


def build_dos(grid: SdfGrid, kappa=None, raster_res=None,
              validate=True, tol_unique=None, tol_geom=None) -> Dos:
    """Flag interesting cells, gather their relevant spheres, cull to kappa
    and precompute the intersection cache."""
    tols = {}
    if tol_unique is not None:
        tols["tol_unique"] = tol_unique
    if tol_geom is not None:
        tols["tol_geom"] = tol_geom
    full = grid.to_sample_set(**tols)
    if validate:
        report = check_validity(full)
        if not report.valid:
            raise InputInvalidError(
                "grid samples do not form a valid discrete SDF", report)
    dim = grid.dim
    h = grid.spacing
    diag = h * np.sqrt(dim)
    centers = grid.cell_centers()

    roots = {}
    interesting_cells = []
    for idx in itertools.product(*[range(r) for r in grid.resolution]):
        flat = grid.flat_index(idx)
        center = centers[flat]
        value = float(grid.values[flat])
        cell = DosCell(index=tuple(idx), depth=0,
                       lo=center - 0.5 * h, hi=center + 0.5 * h,
                       center=center, value=value, sample_index=flat,
                       diag=diag, interesting=_interesting(value, diag))
        roots[cell.index] = cell
        if cell.interesting:
            interesting_cells.append(cell)

    # relevant spheres against the cell's maximal sphere
    for cell in interesting_cells:
        r_max = max(0.5 * diag + abs(cell.value), 0.75 * diag)
        cell.relevant = _cell_relevant(cell.center, r_max, full)

    if kappa is not None and np.isfinite(kappa):
        working, removed, index_map = cull_to_kappa(full, interesting_cells,
                                                    kappa)
    else:
        working, removed, index_map = full, [], np.arange(len(full))

    for cell in roots.values():
        cell.sample_index = int(index_map[cell.sample_index])
        if cell.relevant.size:
            mapped = index_map[cell.relevant]
            cell.relevant = np.sort(mapped[mapped >= 0])

    cache = build_cache(working, raster_res=raster_res)
    return Dos(grid=grid, working=working, cache=cache,
               levels=[roots], kappa=kappa if kappa is not None else np.inf,
               n_input_retained=len(working), removed=removed,
               input_index_map=index_map)


def _child_cells(cell: DosCell, dim):
    """Geometry of the 2^d children, in lexicographic offset order."""
    mid = 0.5 * (cell.lo + cell.hi)
    out = []
    for offset in itertools.product((0, 1), repeat=dim):
        off = np.asarray(offset)
        lo = np.where(off == 0, cell.lo, mid)
        hi = np.where(off == 0, mid, cell.hi)
        idx = tuple(2 * i + o for i, o in zip(cell.index, offset))
        out.append((idx, lo, hi))
    return out


def _face_neighbors(index):
    for axis in range(len(index)):
        for step in (-1, 1):
            yield tuple(v + (step if a == axis else 0)
                        for a, v in enumerate(index))


def refine(dos: Dos, tau: int, on_assign=None):
    """Subdivide interesting cells tau times, assigning each new child center
    a consistent value, in flood-fill order from the least covered cell.

    Returns the list of new (point, value) samples in assignment order.
    """
    working = dos.working
    cache = dos.cache
    dim = dos.grid.dim
    for depth in range(dos.refined_depth, tau):
        level = dos.levels[depth]
        if len(dos.levels) <= depth + 1:
            dos.levels.append({})
        next_level = dos.levels[depth + 1]
        pending = {idx for idx, c in level.items() if c.interesting}
        queue = []
        queued = set()
        processed = set()

        def ratio_of(cell):
            if cell.covered_ratio is None:
                cell.covered_ratio = covered_ratio(cell, working)
            return cell.covered_ratio

        while pending:
            seed = min(pending, key=lambda i: (ratio_of(level[i]), i))
            heapq.heappush(queue, (ratio_of(level[seed]), seed))
            queued.add(seed)
            while queue:
                _, idx = heapq.heappop(queue)
                if idx in processed:
                    continue
                processed.add(idx)
                pending.discard(idx)
                cell = level[idx]
                _subdivide(dos, cell, next_level, on_assign)
                for nidx in _face_neighbors(idx):
                    if nidx in pending and nidx not in queued:
                        heapq.heappush(queue,
                                       (ratio_of(level[nidx]), nidx))
                        queued.add(nidx)
        dos.refined_depth = depth + 1
    return list(dos.new_samples)


def _subdivide(dos: Dos, cell: DosCell, next_level, on_assign=None):
    working = dos.working
    dim = dos.grid.dim
    child_diag = 0.5 * cell.diag
    max_r = cell.max_child_radius()
    children = []
    for idx, lo, hi in _child_cells(cell, dim):
        center = 0.5 * (lo + hi)
        cand = dos.cache.grid.query_bbox(center - max_r, center + max_r)
        relevant = _cell_relevant(center, max_r, working, cand)
        child = DosCell(index=idx, depth=cell.depth + 1, lo=lo, hi=hi,
                        center=center, value=np.nan, sample_index=-1,
                        diag=child_diag, interesting=False, relevant=relevant)
        # ratios are frozen before any sibling is assigned
        child.covered_ratio = covered_ratio(child, working)
        children.append(child)
    children.sort(key=lambda c: (c.covered_ratio, c.index))
    for child in children:
        # the validity scope must see every sphere assigned so far, including
        # siblings, so relevance is re-gathered at assignment time
        cand = dos.cache.grid.query_bbox(child.center - max_r,
                                         child.center + max_r)
        child.relevant = _cell_relevant(child.center, max_r, working, cand)
        value = interpolate_sdf_to(child.center, working,
                                   max_radius=max_r, cache=dos.cache,
                                   mode=MODE_REFINE, indices=child.relevant,
                                   assume_valid=True)
        row = working.append(child.center, value)
        update_cache_on_insert(dos.cache, working, row)
        child.value = float(value)
        child.sample_index = row
        child.interesting = _interesting(value, child_diag)
        # the new sphere is relevant to its own cell from now on
        child.relevant = np.sort(np.append(child.relevant, row))
        dos.new_samples.append((child.center.copy(), float(value)))
        dos.new_rows.append(row)
        next_level[child.index] = child
        if on_assign is not None:
            on_assign(child)
