import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdfgrow.accel import build_cache
from sdfgrow.core import DegenerateGeometryError
from sdfgrow.geom import (
    IntersectionCircle,
    circle_reference_points,
    pair_contacts_and_circles,
    pair_points_2d_batch,
    point_to_circle_distances,
    point_uncovered,
    points_uncovered,
    sphere_has_uncovered_point,
    sphere_pair_circle_3d,
    sphere_pair_contact_or_circle,
    triple_points_batch,
)
from sdfgrow.validity import surface_samples

from conftest import (
    circle_pair_intersect_2d,
    circle_reference_point_scalar,
    make_set,
    random_set,
    sphere_triple_intersect_3d,
)


class TestCirclePair:
    def test_external_tangency(self):
        got = circle_pair_intersect_2d([0, 0], 1, [2, 0], 1)
        assert len(got) == 1
        np.testing.assert_allclose(got[0], [1, 0], atol=1e-12)

    def test_two_points(self):
        got = circle_pair_intersect_2d([0, 0], 1, [1, 0], 1)
        assert len(got) == 2
        ys = sorted(q[1] for q in got)
        np.testing.assert_allclose(ys, [-np.sqrt(3) / 2, np.sqrt(3) / 2])
        np.testing.assert_allclose([q[0] for q in got], [0.5, 0.5])

    def test_disjoint(self):
        assert circle_pair_intersect_2d([0, 0], 1, [5, 0], 1) == []

    def test_nested(self):
        assert circle_pair_intersect_2d([0, 0], 2, [0.2, 0], 0.5) == []

    def test_coincident_equal_radii_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            circle_pair_intersect_2d([0, 0], 1, [0, 0], 1)

    def test_points_on_both_circles(self, rng):
        for _ in range(200):
            c1 = rng.uniform(-1, 1, 2)
            c2 = rng.uniform(-1, 1, 2)
            r1, r2 = rng.uniform(0.05, 1.2, 2)
            if np.linalg.norm(c1 - c2) < 1e-9:
                continue
            for q in circle_pair_intersect_2d(c1, r1, c2, r2):
                assert abs(np.linalg.norm(q - c1) - r1) <= 1e-6
                assert abs(np.linalg.norm(q - c2) - r2) <= 1e-6

    def test_batch_matches_scalar(self, rng):
        c1 = rng.uniform(-1, 1, (100, 2))
        c2 = rng.uniform(-1, 1, (100, 2))
        r1 = rng.uniform(0.05, 1.0, 100)
        r2 = rng.uniform(0.05, 1.0, 100)
        pts, rows = pair_points_2d_batch(c1, r1, c2, r2)
        per_pair = {}
        for q, r in zip(pts, rows):
            per_pair.setdefault(int(r), []).append(q)
        for k in range(100):
            scalar = circle_pair_intersect_2d(c1[k], r1[k], c2[k], r2[k])
            batch = per_pair.get(k, [])
            assert len(scalar) == len(batch)
            for a, b in zip(sorted(map(tuple, scalar)),
                            sorted(map(tuple, batch))):
                np.testing.assert_allclose(a, b, atol=1e-12)


class TestSphereTriple:
    def test_symmetric(self):
        got = sphere_triple_intersect_3d([0, 0, 0], 1, [1, 0, 0], 1,
                                         [0, 1, 0], 1)
        assert len(got) == 2
        for q in got:
            np.testing.assert_allclose(q[:2], [0.5, 0.5], atol=1e-12)
        assert sorted(q[2] for q in got) == pytest.approx(
            [-np.sqrt(0.5), np.sqrt(0.5)])

    def test_double_root_on_tangent_plane(self):
        # spheres 1 and 2 touch at (1,0,0), which also lies on sphere 3
        got = sphere_triple_intersect_3d([0, 0, 0], 1, [2, 0, 0], 1,
                                         [1, 1, 0], 1)
        assert len(got) == 1
        np.testing.assert_allclose(got[0], [1, 0, 0], atol=1e-9)
        # verify by substitution
        for c in ([0, 0, 0], [2, 0, 0], [1, 1, 0]):
            assert abs(np.linalg.norm(got[0] - np.asarray(c)) - 1) <= 1e-9

    def test_disjoint(self):
        got = sphere_triple_intersect_3d([0, 0, 0], 1, [5, 0, 0], 1,
                                         [0, 5, 0], 1)
        assert got == []

    def test_collinear_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            sphere_triple_intersect_3d([0, 0, 0], 1, [1, 0, 0], 1,
                                       [2, 0, 0], 1)

    def test_points_on_all_spheres(self, rng):
        for _ in range(200):
            cs = rng.uniform(-0.8, 0.8, (3, 3))
            rs = rng.uniform(0.2, 1.0, 3)
            try:
                got = sphere_triple_intersect_3d(cs[0], rs[0], cs[1], rs[1],
                                                 cs[2], rs[2])
            except DegenerateGeometryError:
                continue
            for q in got:
                for c, r in zip(cs, rs):
                    assert abs(np.linalg.norm(q - c) - r) <= 2e-6

    def test_batch_matches_scalar(self, rng):
        c1 = np.array([0.1, -0.2, 0.0])
        c2 = np.array([0.5, 0.3, 0.1])
        c3s = rng.uniform(-0.8, 0.8, (50, 3))
        r3s = rng.uniform(0.2, 0.9, 50)
        pts, rows = triple_points_batch(c1, 0.7, c2, 0.8, c3s, r3s)
        per = {}
        for q, r in zip(pts, rows):
            per.setdefault(int(r), []).append(tuple(np.round(q, 9)))
        for k in range(50):
            try:
                scalar = sphere_triple_intersect_3d(c1, 0.7, c2, 0.8,
                                                    c3s[k], r3s[k])
            except DegenerateGeometryError:
                scalar = []
            assert sorted(per.get(k, [])) == sorted(
                tuple(np.round(q, 9)) for q in scalar)


PROPERTY = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def sphere_rows(seed, m, snap):
    """m random spheres; with ``snap`` centers and radii are multiples of
    1/4, so that tangencies, shared centers and collinear triples occur."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.8, 0.8, (m, 3))
    r = rng.uniform(0.1, 0.9, m)
    if snap:
        c = np.round(c * 4) / 4
        r = np.round(r * 4) / 4 + 0.25
    return c, r


class TestRowIndependence:
    """Every row of a batched routine equals the same row computed alone,
    bit for bit, whatever else the batch holds."""

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 40),
           snap=st.booleans(), shared_pair=st.booleans())
    @settings(PROPERTY, max_examples=60)
    def test_triple_points(self, seed, m, snap, shared_pair):
        c, r = sphere_rows(seed, 3 * m, snap)
        c1, r1, c2, r2 = c[:m], r[:m], c[m:2 * m], r[m:2 * m]
        if shared_pair:
            c1, r1, c2, r2 = c1[0], r1[0], c2[0], r2[0]
        pts, src = triple_points_batch(c1, r1, c2, r2, c[2 * m:], r[2 * m:])
        for k in range(m):
            row = (slice(None),) if shared_pair else (slice(k, k + 1),)
            alone, _ = triple_points_batch(
                np.reshape(c1, (-1, 3))[row[0]], np.ravel(r1)[row[0]],
                np.reshape(c2, (-1, 3))[row[0]], np.ravel(r2)[row[0]],
                c[2 * m + k], r[2 * m + k])
            assert np.array_equal(pts[src == k], alone)

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 40),
           snap=st.booleans())
    @settings(PROPERTY, max_examples=60)
    def test_pairs_and_circle_distances(self, seed, m, snap):
        c, r = sphere_rows(seed, m + 1, snap)
        pair = pair_contacts_and_circles(c[0], r[0], c[1:], r[1:])
        dist = point_to_circle_distances(c[1:], pair[2], pair[4], pair[3])
        for k in range(m):
            alone = pair_contacts_and_circles(c[0], r[0], c[1 + k:2 + k],
                                              r[1 + k:2 + k])
            for got, one in zip(pair, alone):
                assert np.array_equal(got[k:k + 1], one)
            alone = point_to_circle_distances(c[1 + k], pair[2][k],
                                              pair[4][k], pair[3][k])
            for got, one in zip(dist, alone):
                assert np.array_equal(got[k:k + 1], one)
            # and each row is the scalar pair helper's answer
            contact, circle = sphere_pair_contact_or_circle(
                c[0], r[0], c[1 + k], r[1 + k])
            assert pair[0][k] == (contact is not None)
            assert pair[1][k] == (circle is not None)
            if contact is not None:
                assert np.array_equal(pair[2][k], contact)
            if circle is not None:
                assert np.array_equal(pair[2][k], circle.center)
                assert pair[3][k] == circle.radius
                assert np.array_equal(pair[4][k], circle.normal)


class TestReferencePoints:
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 30),
           zeros=st.integers(0, 2))
    @settings(PROPERTY, max_examples=80)
    def test_batch_equals_scalar(self, seed, m, zeros):
        # unit normals with 0, 1 or 2 zeroed components, signs mixed
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(m, 3))
        for row in normals:
            row[rng.permutation(3)[:zeros]] = 0.0
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        centers = rng.uniform(-1.0, 1.0, (m, 3))
        radii = rng.uniform(0.01, 1.0, m)
        got = circle_reference_points(centers, normals, radii)
        for k in range(m):
            circle = IntersectionCircle(center=centers[k], radius=radii[k],
                                        normal=normals[k], hosts=(0, 1))
            assert np.array_equal(got[k],
                                  circle_reference_point_scalar(circle))


class TestPairCircle3d:
    def test_symmetric(self):
        c = sphere_pair_circle_3d([0, 0, 0], 1, [1, 0, 0], 1)
        np.testing.assert_allclose(c.center, [0.5, 0, 0])
        assert c.radius == pytest.approx(np.sqrt(3) / 2)
        np.testing.assert_allclose(c.normal, [1, 0, 0])

    def test_disjoint_none(self):
        assert sphere_pair_circle_3d([0, 0, 0], 1, [3, 0, 0], 1) is None

    def test_nested_none(self):
        assert sphere_pair_circle_3d([0, 0, 0], 2, [0.5, 0, 0], 0.5) is None

    def test_tangent_none(self):
        assert sphere_pair_circle_3d([0, 0, 0], 1, [2, 0, 0], 1) is None

    def test_circle_lies_on_both(self, rng):
        c = sphere_pair_circle_3d([0, 0, 0], 1, [1, 0, 0], 1)
        # any orthonormal basis of the circle plane
        e1 = np.array([0, 1, 0.0])
        e2 = np.array([0, 0, 1.0])
        for t in rng.uniform(0, 2 * np.pi, 50):
            q = c.center + c.radius * (np.cos(t) * e1 + np.sin(t) * e2)
            assert abs(np.linalg.norm(q) - 1) <= 1e-9
            assert abs(np.linalg.norm(q - [1, 0, 0]) - 1) <= 1e-9


class TestCircleExtremes:
    """``IntersectionCache.circle_extreme_candidates`` over the one circle
    of two unit spheres at distance 1."""

    def cache(self):
        return build_cache(make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)]))

    def extremes(self, p, include_degenerate=True):
        pts, dists, hosts = self.cache().circle_extreme_candidates(
            np.asarray(p, dtype=np.float64), True,
            include_degenerate=include_degenerate)
        np.testing.assert_allclose(
            dists, np.linalg.norm(pts - np.asarray(p), axis=1), atol=1e-12)
        assert hosts.dtype == np.intp and hosts.shape == (len(pts), 2)
        assert [tuple(h) for h in hosts.tolist()] == [(0, 1)] * len(pts)
        return pts

    def test_on_axis_reference_point(self):
        assert self.extremes([2, 0, 0], include_degenerate=False).shape \
            == (0, 3)
        pts = self.extremes([2, 0, 0])
        circle = sphere_pair_circle_3d([0, 0, 0], 1, [1, 0, 0], 1)
        np.testing.assert_allclose(pts,
                                   [circle_reference_point_scalar(circle)],
                                   atol=1e-12)

    def test_in_plane(self):
        near, far = self.extremes([0.5, 2, 0])
        rho = np.sqrt(3) / 2
        np.testing.assert_allclose(near, [0.5, rho, 0], atol=1e-12)
        np.testing.assert_allclose(far, [0.5, -rho, 0], atol=1e-12)

    def test_oblique_matches_parametric_search(self):
        c = sphere_pair_circle_3d([0, 0, 0], 1, [1, 0, 0], 1)
        p = np.array([0.5, 1.0, 1.0])
        near, far = self.extremes(p)
        d = np.array([0, 1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(near, c.center + c.radius * d, atol=1e-12)
        np.testing.assert_allclose(far, c.center - c.radius * d, atol=1e-12)
        # numeric oracle: sample the circle densely
        t = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        e1 = np.array([0, 1, 0.0])
        e2 = np.array([0, 0, 1.0])
        ring = c.center + c.radius * (np.cos(t)[:, None] * e1
                                      + np.sin(t)[:, None] * e2)
        dist = np.linalg.norm(ring - p, axis=1)
        dn = np.linalg.norm(near - p)
        df = np.linalg.norm(far - p)
        assert np.all(dist >= dn - 1e-9)
        assert np.all(dist <= df + 1e-9)


class TestCoverage:
    def test_boundary_counts_as_uncovered(self):
        s = make_set([((0, 0), 1.0)])
        assert point_uncovered(np.array([1.0, 0.0]), s)

    def test_strictly_inside(self):
        s = make_set([((0, 0), 1.0)])
        assert not point_uncovered(np.array([0.5, 0.0]), s)

    def test_exact_double_boundary(self):
        s = make_set([((0.6, 0), 1.0), ((-0.6, 0), 1.0)])
        q = np.array([0.0, 0.8])
        assert np.linalg.norm(q - [0.6, 0]) == pytest.approx(1.0)
        assert point_uncovered(q, s)

    def test_monotone_under_removal(self, rng):
        for _ in range(50):
            s = random_set(rng, 2, max_n=6)
            qs = rng.uniform(-1, 1, (20, 2))
            full = points_uncovered(qs, s)
            keep = rng.random(len(s)) < 0.5
            sub, _ = s.subset(np.nonzero(keep)[0])
            part = points_uncovered(qs, sub)
            # removing spheres never flips uncovered -> covered
            assert np.all(part[full])


class TestSphereUncovered:
    def test_enclosed_small_sphere(self):
        s = make_set([((0.1, 0), 0.5), ((0, 0), 1.0)])
        assert not sphere_has_uncovered_point(0, s)
        assert sphere_has_uncovered_point(1, s)

    def test_single_sphere(self):
        s = make_set([((0.3, -0.2), 0.7)])
        assert sphere_has_uncovered_point(0, s)

    def test_internal_tangency_boundary_contact(self):
        # only contact at (-1, 0); the dense oracle agrees
        s = make_set([((0, 0), 1.0), ((0.5, 0), 1.5)])
        assert sphere_has_uncovered_point(0, s)
        pts = surface_samples(np.array([0.0, 0.0]), 1.0, 2, 4096)
        flags = points_uncovered(pts, s, exclude=[0])
        assert np.any(flags)

    def test_agrees_with_dense_oracle(self, rng):
        mismatches = 0
        total = 0
        for _ in range(120):
            s = random_set(rng, 2, max_n=8)
            for i in range(len(s)):
                exact = sphere_has_uncovered_point(i, s)
                pts = surface_samples(s.points[i], s.radii[i], 2, 4096)
                approx = bool(np.any(points_uncovered(pts, s, exclude=[i])))
                if exact != approx:
                    # tolerate only sub-resolution disagreements
                    d = np.linalg.norm(
                        pts[:, None, :] - s.points[None, :, :], axis=2)
                    slack = d - s.radii[None, :]
                    slack[:, i] = np.inf
                    margin = float(np.max(np.min(slack, axis=1)))
                    assert abs(margin) < 1e-4, (exact, approx, margin)
                    mismatches += 1
                total += 1
        assert mismatches <= total // 50

    def test_agrees_with_dense_oracle_3d(self, rng):
        for _ in range(60):
            s = random_set(rng, 3, max_n=6)
            for i in range(len(s)):
                exact = sphere_has_uncovered_point(i, s)
                pts = surface_samples(s.points[i], s.radii[i], 3, 4096)
                approx = bool(np.any(points_uncovered(pts, s, exclude=[i])))
                if exact != approx:
                    d = np.linalg.norm(
                        pts[:, None, :] - s.points[None, :, :], axis=2)
                    slack = d - s.radii[None, :]
                    slack[:, i] = np.inf
                    margin = float(np.max(np.min(slack, axis=1)))
                    # 3D surface sampling is coarser; only sub-resolution
                    # features may disagree
                    assert abs(margin) < 5e-3, (exact, approx, margin)
