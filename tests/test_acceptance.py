"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from sdfgrow.accel import build_cache, raster_resolution_auto
from sdfgrow.core import SampleSet, default_kappa
from sdfgrow.dos import build_dos, refine
from sdfgrow.fields import (
    circle_sdf,
    halfspace_sdf,
    sample_grid,
    two_circle_union_grid,
)
from sdfgrow.interp import interpolate_sdf_to, min_valid_radius
from sdfgrow.metrics import point_to_mesh_distance
from sdfgrow.recon import boundary_edges, complete_narrow_band, extract_mesh
from sdfgrow.repair import repair_pseudo_sdf
from sdfgrow.validity import (
    check_validity,
    check_validity_oracle,
    pairwise_lipschitz,
    surface_samples,
)

from conftest import (
    exhaustive_uncovered_pairs_2d,
    exhaustive_uncovered_triples_3d,
    points_and_hosts,
    random_set,
    sampled_sdf_set,
)

# valid output sets collected by criteria 2, 5 and 6 for the Lipschitz gate
_OUTPUT_SETS = {}


def _report(name, detail):
    print(f"\n[acceptance] {name}: PASS ({detail})")


def _decision_margin(s, samples_per_sphere=4096):
    """How far the set is from flipping its validity verdict: the smallest
    absolute slack over opposite-sign pair gaps and per-sphere coverage
    margins (measured on the oracle's own sampling)."""
    margin = np.inf
    pts = s.points
    radii = s.radii
    signs = s.signs
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            if signs[i] != signs[j]:
                gap = np.linalg.norm(pts[i] - pts[j]) - (radii[i] + radii[j])
                margin = min(margin, abs(gap))
    for i in range(n):
        if n == 1:
            continue
        surf = surface_samples(pts[i], radii[i], s.dim, samples_per_sphere)
        d = np.linalg.norm(surf[:, None, :] - pts[None, :, :], axis=2)
        slack = d - radii[None, :]
        slack[:, i] = np.inf
        margin = min(margin, abs(float(np.max(np.min(slack, axis=1)))))
    return margin


class TestCriterion1ValidityOracle:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        checked = skipped = 0
        for dim, trials, max_n in ((2, 500, 8), (3, 200, 6)):
            for _ in range(trials):
                s = random_set(rng, dim, max_n=max_n)
                exact = check_validity(s).valid
                approx = check_validity_oracle(s, 4096)
                if exact != approx:
                    assert _decision_margin(s) < 1e-4, \
                        "disagreement outside the borderline band"
                    skipped += 1
                else:
                    checked += 1
        dt = time.perf_counter() - t0
        assert dt < 60.0
        _report("criterion 1",
                f"{checked} agreements, {skipped} borderline skips, "
                f"{dt:.1f}s < 60s")


class TestCriterion2InterpolationConsistency:
    def test_augmented_sets_stay_valid(self):
        rng = np.random.default_rng(202)
        kept = []
        n_interp = n_min = 0
        for trial in range(100):
            s = sampled_sdf_set(rng, 2, n_points=int(rng.integers(4, 9)))
            assert check_validity(s).valid
            cache = build_cache(s, exhaustive=True)
            queries = rng.uniform(-0.95, 0.95, (200, 2))
            for k, p in enumerate(queries):
                v = interpolate_sdf_to(p, s, cache=cache, assume_valid=True)
                aug = s.copy()
                aug.append(p, v)
                assert check_validity(aug).valid, (trial, k, p, v)
                n_interp += 1
                m = min_valid_radius(p, s, cache=cache, assume_valid=True)
                aug2 = s.copy()
                aug2.append(p, m)
                assert check_validity(aug2).valid, (trial, k, p, m)
                n_min += 1
                if k == 0:
                    kept.append(aug)
                    kept.append(aug2)
        _OUTPUT_SETS["criterion2"] = kept
        _report("criterion 2",
                f"{n_interp} interpolations and {n_min} minimum radii, "
                f"all augmented sets valid")


class TestCriterion3Minimality:
    def test_sweep_oracle(self):
        rng = np.random.default_rng(303)
        checked = 0
        for _ in range(50):
            s = sampled_sdf_set(rng, 2, n_points=int(rng.integers(4, 8)))
            p = rng.uniform(-0.8, 0.8, 2)
            v = min_valid_radius(p, s, assume_valid=True)
            sgn = -1.0 if v < 0 else 1.0
            for r in np.arange(0.0, abs(v) - 1e-3, 1e-3):
                aug = s.copy()
                aug.append(p, sgn * r)
                assert not check_validity(aug).valid, (p, v, r)
            aug = s.copy()
            aug.append(p, v)
            assert check_validity(aug).valid
            checked += 1
        _report("criterion 3",
                f"{checked} configurations, sweep found no smaller valid "
                f"radius (step 1e-3)")


class TestCriterion4Golden:
    def test_hand_derived_values(self):
        s = SampleSet([[0.0, 0.0]], [1.0])
        p = np.array([0.5, 0.0])
        v = interpolate_sdf_to(p, s, max_radius=2 * np.sqrt(2))
        m = min_valid_radius(p, s)
        assert abs(v - 1.5) <= 1e-9
        assert abs(m - 0.5) <= 1e-9
        _report("criterion 4",
                f"interpolate={v!r}, min_valid_radius={m!r}")


@pytest.fixture(scope="module")
def refined_circle():
    """Criterion 5 artifact: unit-circle SDF on a 15^2 grid that contains
    the circle, refined at tau=3, kappa=inf."""
    grid = sample_grid(lambda p: circle_sdf(p, radius=1.0), 2, 15, -1.4, 1.4)
    t0 = time.perf_counter()
    dos = build_dos(grid, kappa=None)
    refine(dos, 3)
    band = complete_narrow_band(dos, workers=1)
    mesh = extract_mesh(band)
    dt = time.perf_counter() - t0
    return dos, band, mesh, dt


class TestCriterion5Refinement:
    def test_end_to_end(self, refined_circle):
        dos, band, mesh, dt = refined_circle
        assert dt < 30.0
        report = check_validity(dos.working)
        assert report.valid
        _OUTPUT_SETS["criterion5"] = [dos.working]
        # symmetric Hausdorff distance to the analytic unit circle
        h_fine = band.spacing
        t = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
        ring = np.column_stack([np.cos(t), np.sin(t)])
        d_circle_to_mesh = point_to_mesh_distance(ring, mesh).max()
        samples = np.linspace(0, 1, 8)[:-1]
        seg_pts = []
        v = mesh.vertices
        for a, b in mesh.elements:
            seg_pts.append(v[a][None, :]
                           + samples[:, None] * (v[b] - v[a])[None, :])
        seg_pts = np.vstack(seg_pts)
        d_mesh_to_circle = np.abs(np.linalg.norm(seg_pts, axis=1) - 1.0).max()
        hausdorff = max(d_circle_to_mesh, d_mesh_to_circle)
        assert hausdorff <= 2 * h_fine
        assert boundary_edges(mesh) == []
        _report("criterion 5",
                f"valid union of {len(dos.working)} samples, polyline "
                f"Hausdorff {hausdorff:.4f} <= {2 * h_fine:.4f}, "
                f"{dt:.1f}s < 30s")


@pytest.fixture(scope="module")
def repaired_union():
    """Criterion 6 artifact: min-union pseudo-SDF of unit circles at
    (+-0.6, 0) on a 45^2 grid."""
    grid = two_circle_union_grid(resolution=45)
    t0 = time.perf_counter()
    result = repair_pseudo_sdf(grid, workers=1)
    dt = time.perf_counter() - t0
    return grid, result, dt


class TestCriterion6Repair:
    def test_end_to_end(self, repaired_union):
        grid, result, dt = repaired_union
        assert dt < 10.0
        repaired_set = result.repaired.to_sample_set()
        assert check_validity(repaired_set).valid
        _OUTPUT_SETS["criterion6"] = [repaired_set]
        for _, old, new in result.changed:
            assert abs(new) >= abs(old) - 1e-12
            assert (new < 0) == (old < 0)
        flat = grid.flat_index((22, 22))
        assert grid.values[flat] == pytest.approx(-0.4)
        origin_new = result.repaired.values[flat]
        assert origin_new == pytest.approx(-0.8, abs=grid.spacing / 2)
        eight = repair_pseudo_sdf(grid, workers=8)
        np.testing.assert_array_equal(eight.repaired.values,
                                      result.repaired.values)
        _report("criterion 6",
                f"{len(result.changed)} samples repaired, origin "
                f"{grid.values[flat]:.4f} -> {origin_new:.4f}, workers 1 vs "
                f"8 bit-identical, {dt:.1f}s < 10s")


class TestCriterion7CullingAblation:
    def test_culling_speeds_up_and_stays_valid(self):
        grid = sample_grid(lambda p: circle_sdf(p, radius=0.35), 2, 40,
                           -1, 1)
        kappa = default_kappa(grid.n, 2)
        assert kappa == 160
        t0 = time.perf_counter()
        culled = build_dos(grid, kappa=kappa)
        refine(culled, 2)
        t_culled = time.perf_counter() - t0
        assert culled.removed
        assert check_validity(culled.working).valid
        t0 = time.perf_counter()
        full = build_dos(grid, kappa=None)
        refine(full, 2)
        t_full = time.perf_counter() - t0
        assert t_culled < t_full
        _report("criterion 7",
                f"kappa={kappa} culled {len(culled.removed)} spheres, "
                f"{t_culled:.1f}s vs {t_full:.1f}s uncull"
                f"ed, output valid w.r.t. retained")


class TestCriterion8PrefilterCompleteness:
    def test_resolution_rule(self):
        assert raster_resolution_auto(100, 2) == 128

    def test_2d_matches_exhaustive(self):
        rng = np.random.default_rng(808)
        for trial in range(100):
            n = int(rng.integers(2, 65))
            pts = rng.uniform(-0.9, 0.9, (n, 2))
            vals = rng.uniform(0.03, 0.5, n) * rng.choice([-1, 1], n)
            s = SampleSet(pts, vals)
            cache = build_cache(s)
            got = {tuple(round(float(x), 7) for x in pt)
                   + tuple(sorted(int(h) for h in hosts))
                   for pt, hosts in points_and_hosts(cache)}
            expect = {(x, y, i, j)
                      for x, y, i, j in exhaustive_uncovered_pairs_2d(s)}
            assert got == expect, trial
        _report("criterion 8 (2D)",
                "100 random sets (n<=64): cache == exhaustive enumeration")

    def test_3d_matches_exhaustive(self):
        rng = np.random.default_rng(809)
        for trial in range(30):
            n = int(rng.integers(3, 33))
            pts = rng.uniform(-0.8, 0.8, (n, 3))
            vals = rng.uniform(0.1, 0.5, n) * rng.choice([-1, 1], n)
            s = SampleSet(pts, vals)
            cache = build_cache(s)
            got = {t for t in
                   (tuple(round(float(x), 7) for x in pt)
                    + tuple(sorted(int(h) for h in hosts))
                    for pt, hosts in points_and_hosts(cache))
                   if len(t) == 6}
            expect = exhaustive_uncovered_triples_3d(s)
            assert got == expect, trial
        _report("criterion 8 (3D)",
                "30 random sets (n<=32): cache == exhaustive triples")


class TestCriterion9Lipschitz:
    def test_outputs_are_lipschitz(self):
        assert _OUTPUT_SETS.get("criterion2"), "criterion 2 must run first"
        count = 0
        for key in ("criterion2", "criterion5", "criterion6"):
            for s in _OUTPUT_SETS[key]:
                assert pairwise_lipschitz(s)
                count += 1
        _report("criterion 9", f"{count} output sets pass the 1-Lipschitz "
                               f"pair test")


class TestCriterion10ReconstructionExactness:
    def test_affine_exact(self):
        normal = np.array([1.0, 2.0]) / np.sqrt(5)
        grid = sample_grid(lambda p: halfspace_sdf(p, normal, 0.04), 2, 16,
                           -1, 1)
        dos = build_dos(grid)
        refine(dos, 0)
        mesh = extract_mesh(complete_narrow_band(dos))
        err = np.abs(mesh.vertices @ normal - 0.04).max()
        assert err <= 1e-6
        _report("criterion 10 (affine)", f"line reproduced within {err:.2e}")

    def test_offset_extraction(self):
        grid = sample_grid(lambda p: circle_sdf(p, radius=0.5), 2, 16, -1, 1)
        dos = build_dos(grid)
        refine(dos, 2)
        band = complete_narrow_band(dos, iso=0.15)
        mesh = extract_mesh(band)
        assert boundary_edges(mesh) == []
        r = np.linalg.norm(mesh.vertices, axis=1)
        err = np.abs(r - 0.65).max()
        assert err <= 2 * band.spacing
        _report("criterion 10 (offset)",
                f"iso=0.15 polyline within {err:.4f} <= "
                f"{2 * band.spacing:.4f} of radius 0.65")
