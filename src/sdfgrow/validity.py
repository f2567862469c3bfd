"""Deciding whether a sample set is a valid discrete SDF.

A set is valid iff (i) no differently signed spheres overlap (touching at a
single point is allowed) and (ii) every sphere keeps at least one point that
is not strictly inside any other sample's ball.  Both conditions are decided
exactly: (i) by pairwise distances, (ii) from the set's intersection cache
(``accel``), the one representation of uncovered crossings.  A dense
surface-sampling oracle is provided for testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accel import ensure_cache
from .core import SampleSet
from .geom import points_uncovered, sphere_has_uncovered_point

_CHUNK = 256


@dataclass
class Violation:
    kind: str                 # opposite-sign-overlap | fully-covered-sphere | contradictory-duplicate
    indices: tuple


@dataclass
class ValidityReport:
    valid: bool
    violations: list = field(default_factory=list)

    def by_kind(self, kind):
        return [v for v in self.violations if v.kind == kind]

    def __str__(self):
        if self.valid:
            return "valid"
        lines = [f"invalid ({len(self.violations)} violations)"]
        lines += [f"  {v.kind}: {v.indices}" for v in self.violations]
        return "\n".join(lines)


def _opposite_sign_overlaps(sample_set):
    """All index pairs of differently signed spheres whose open balls overlap."""
    pts = sample_set.points
    radii = sample_set.radii
    signs = sample_set.signs
    tol = sample_set.tol_geom
    n = len(sample_set)
    pairs = []
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        d = np.linalg.norm(pts[a:b, None, :] - pts[None, :, :], axis=2)
        opp = signs[a:b, None] != signs[None, :]
        bad = opp & (d < radii[a:b, None] + radii[None, :] - tol)
        for ii, jj in zip(*np.nonzero(bad)):
            i, j = a + int(ii), int(jj)
            if i < j:
                pairs.append((i, j))
    return pairs


def _contradictory_duplicates(sample_set):
    """Pairs of samples at the same location (within tol_unique) carrying
    different values.  Such samples cannot both hold."""
    pts = sample_set.points
    vals = sample_set.values
    n = len(sample_set)
    pairs = []
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        d = np.linalg.norm(pts[a:b, None, :] - pts[None, :, :], axis=2)
        dup = d <= sample_set.tol_unique
        diff = np.abs(vals[a:b, None] - vals[None, :]) > sample_set.tol_geom
        bad = dup & diff
        for ii, jj in zip(*np.nonzero(bad)):
            i, j = a + int(ii), int(jj)
            if i < j:
                pairs.append((i, j))
    return pairs


def find_fully_covered_spheres(sample_set, cache=None):
    """Indices of all spheres with no uncovered surface point (exhaustive,
    not first-found).  ``cache`` is the set's intersection cache; one is
    built when it is None."""
    cache = ensure_cache(sample_set, cache)
    return [i for i in range(len(sample_set))
            if not sphere_has_uncovered_point(i, sample_set, cache=cache)]


def check_validity(sample_set: SampleSet, cache=None) -> ValidityReport:
    """Full validity decision with an exhaustive violation list.  Condition
    (ii) is read from ``cache``, the set's intersection cache, which is
    built when it is None."""
    violations = []
    for pair in _contradictory_duplicates(sample_set):
        violations.append(Violation("contradictory-duplicate", pair))
    for pair in _opposite_sign_overlaps(sample_set):
        violations.append(Violation("opposite-sign-overlap", pair))
    for i in find_fully_covered_spheres(sample_set, cache=cache):
        violations.append(Violation("fully-covered-sphere", (i,)))
    return ValidityReport(valid=not violations, violations=violations)


def pairwise_lipschitz(sample_set: SampleSet) -> bool:
    """Necessary condition for validity: |s_i - s_j| <= |p_i - p_j| + tol
    for every pair (the field cannot vary faster than distance)."""
    pts = sample_set.points
    vals = sample_set.values
    tol = sample_set.tol_geom
    n = len(sample_set)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        d = np.linalg.norm(pts[a:b, None, :] - pts[None, :, :], axis=2)
        gap = np.abs(vals[a:b, None] - vals[None, :]) - d
        if np.any(gap > tol):
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force oracle (tests only)
# ---------------------------------------------------------------------------

def surface_samples(center, radius, dim, n):
    """n roughly uniform samples of a sphere surface (exact-uniform angles in
    2D, Fibonacci lattice in 3D)."""
    if dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return center + radius * np.column_stack([np.cos(t), np.sin(t)])
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    dirs = np.column_stack([np.sin(phi) * np.cos(theta),
                            np.sin(phi) * np.sin(theta),
                            np.cos(phi)])
    return center + radius * dirs


def sphere_coverage_margin(i, sample_set, samples_per_sphere=4096):
    """max over sampled surface points of the slack min_j(|x - p_j| - r_j).
    Positive: sphere i clearly has an uncovered point; negative: every
    sampled point is inside some other ball by at least that much."""
    pts = surface_samples(sample_set.points[i], sample_set.radii[i],
                          sample_set.dim, samples_per_sphere)
    others = [j for j in range(len(sample_set)) if j != i]
    if not others:
        return np.inf
    d = np.linalg.norm(pts[:, None, :] - sample_set.points[others][None, :, :],
                       axis=2)
    slack = d - sample_set.radii[others][None, :]
    return float(np.max(np.min(slack, axis=1)))


def check_validity_oracle(sample_set: SampleSet,
                          samples_per_sphere: int = 4096) -> bool:
    """Independent brute-force verdict: exact pairwise opposite-sign test
    plus dense surface sampling for the uncovered-point condition."""
    if samples_per_sphere < 64:
        raise ValueError("samples_per_sphere must be >= 64")
    if _contradictory_duplicates(sample_set):
        return False
    if _opposite_sign_overlaps(sample_set):
        return False
    for i in range(len(sample_set)):
        pts = surface_samples(sample_set.points[i], sample_set.radii[i],
                              sample_set.dim, samples_per_sphere)
        flags = points_uncovered(pts, sample_set, exclude=[i])
        if not np.any(flags):
            return False
    return True
