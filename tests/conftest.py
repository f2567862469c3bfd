import itertools

import numpy as np
import pytest

from sdfgrow.core import SampleSet
from sdfgrow.geom import circle_pair_intersect_2d, sphere_triple_intersect_3d
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
