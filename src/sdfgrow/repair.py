"""Pseudo-SDF repair: reassign every fully covered sample its minimum valid
radius, in parallel against a frozen base set.

Pseudo-fields (e.g. from min/max CSG composition) are conservative lower
bounds of true distance, so stripping the covered samples leaves a valid set
and each stripped point can be repaired independently; the joint result is
valid because each new value is minimal.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

from .accel import build_cache
from .core import NotRepairableError, SampleSet, SdfGrid
from .interp import (MODE_REPAIR, freeze_cache_for_queries, min_valid_radii,
                     min_valid_radius)
from .validity import (
    _contradictory_duplicates,
    _opposite_sign_overlaps,
    find_fully_covered_spheres,
)


@dataclass
class RepairResult:
    repaired: SdfGrid
    changed: list                 # (flat index, old value, new value)
    stats: dict = field(default_factory=dict)


def find_fully_covered(sample_set: SampleSet, cache=None):
    """Indices of samples whose sphere has no uncovered point.

    Raises NotRepairableError when the set contains opposite-sign overlaps or
    contradictory duplicates; those violations cannot be fixed by growing
    radii."""
    overlaps = _opposite_sign_overlaps(sample_set)
    if overlaps:
        raise NotRepairableError(
            f"opposite-sign spheres overlap: {overlaps[0]}",
            offending=overlaps)
    dups = _contradictory_duplicates(sample_set)
    if dups:
        raise NotRepairableError(
            f"contradictory duplicate samples: {dups[0]}", offending=dups)
    return find_fully_covered_spheres(sample_set, cache=cache)


# -- parallel minimum-radius map --------------------------------------------

_WORK = {}


def _init_worker(base, cache):
    _WORK["base"] = base
    _WORK["cache"] = cache


def _chunk_min_valid(args):
    rows, points, signs, floors = args
    base, cache = _WORK["base"], _WORK["cache"]
    if signs is None:
        return rows, min_valid_radii(points, base, cache, floors=floors,
                                     mode=MODE_REPAIR)
    out = np.empty(len(rows))
    for k in range(len(rows)):
        out[k] = min_valid_radius(points[k], base, lower_bound=floors[k],
                                  sign=signs[k], cache=cache,
                                  mode=MODE_REPAIR, assume_valid=True)
    return rows, out


def parallel_min_valid_radius(points, base: SampleSet, cache, workers=1,
                              signs=None, floors=None):
    """Minimum valid radius for many points against one frozen base set:
    one ``min_valid_radii`` call per chunk, or with per-point ``signs`` one
    ``min_valid_radius`` call per point.  The result is independent of the
    worker count."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = points.shape[0]
    if floors is None and signs is not None:
        floors = np.zeros(m)
    out = np.empty(m)
    if m == 0:
        return out
    if workers <= 1:
        _init_worker(base, cache)
        _, vals = _chunk_min_valid((np.arange(m), points, signs, floors))
        return vals
    chunk = max(1, (m + workers * 4 - 1) // (workers * 4))
    tasks = []
    for a in range(0, m, chunk):
        b = min(a + chunk, m)
        tasks.append((np.arange(a, b), points[a:b],
                      None if signs is None else signs[a:b],
                      None if floors is None else np.asarray(floors)[a:b]))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_init_worker,
                  initargs=(base, cache)) as pool:
        for rows, vals in pool.imap_unordered(_chunk_min_valid, tasks):
            out[rows] = vals
    return out


def repair_pseudo_sdf(grid: SdfGrid, workers: int = 1, tol_unique=None,
                      tol_geom=None) -> RepairResult:
    """Turn a discretely sampled pseudo-SDF into a valid discrete SDF.

    All fully covered samples are stripped at once; the remaining set is
    valid and frozen, and every stripped point is independently assigned its
    minimum valid radius with the original magnitude as a pruning floor and
    its original sign kept.
    """
    t0 = time.perf_counter()
    tols = {}
    if tol_unique is not None:
        tols["tol_unique"] = tol_unique
    if tol_geom is not None:
        tols["tol_geom"] = tol_geom
    full = grid.to_sample_set(**tols)
    covered = find_fully_covered(full)
    repaired = grid.copy()
    changed = []
    if covered:
        keep = np.setdiff1d(np.arange(len(full)), np.asarray(covered))
        base, _ = full.subset(keep)
        cache = freeze_cache_for_queries(build_cache(base))
        pts = full.points[covered]
        olds = full.values[covered]
        signs = np.where(olds < 0.0, -1.0, 1.0)
        floors = np.abs(olds)
        news = parallel_min_valid_radius(pts, base, cache, workers=workers,
                                         signs=list(signs), floors=floors)
        for i, old, new in zip(covered, olds, news):
            repaired.values[i] = new
            changed.append((int(i), float(old), float(new)))
    dt = time.perf_counter() - t0
    stats = {"samples": len(full), "covered": len(covered),
             "changed": len(changed), "workers": int(workers),
             "wall_time": dt}
    return RepairResult(repaired=repaired, changed=changed, stats=stats)
