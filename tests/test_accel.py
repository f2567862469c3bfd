import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sdfgrow.accel import (
    _EXHAUSTIVE_MAX,
    _PAIR_BUDGET,
    _check_key_range,
    _raster_marks,
    _raster_nominations,
    build_ball_grid,
    build_cache,
    cull_to_kappa,
    grid_points_uncovered,
    raster_resolution_auto,
    update_cache_on_insert,
)
from sdfgrow.core import SampleSet, SdfError
from sdfgrow.fields import circle_sdf, sample_grid, sphere_sdf
from sdfgrow.geom import points_uncovered
from sdfgrow.validity import find_fully_covered_spheres, sphere_coverage_margin

from conftest import (
    exhaustive_uncovered_pairs_2d,
    exhaustive_uncovered_triples_3d,
    make_set,
    points_and_hosts,
    random_set,
    raster_nominations_reference,
    update_cache_on_insert_reference,
)


def cache_point_set(cache, ndigits=7):
    out = set()
    for pt, hosts in points_and_hosts(cache):
        out.add(tuple(round(float(x), ndigits) for x in pt)
                + tuple(sorted(int(h) for h in hosts)))
    return out


class TestRasterRule:
    def test_default_rule(self):
        assert raster_resolution_auto(100, 2) == 128
        assert raster_resolution_auto(1, 2) == 64
        assert raster_resolution_auto(16, 2) == 64
        assert raster_resolution_auto(2025, 2) == 512
        assert raster_resolution_auto(32, 3) == 64
        assert raster_resolution_auto(8000, 3) == 256


class TestBuildCache2d:
    def test_disjoint_spheres_empty(self):
        s = make_set([((0, 0), 0.3), ((0.9, 0), 0.3)])
        cache = build_cache(s)
        assert len(cache.alive_rows()) == 0

    def test_two_circle_lens(self):
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        cache = build_cache(s)
        got = sorted(tuple(np.round(p, 7))
                     for p, _ in points_and_hosts(cache))
        assert got == [(0.6, -0.8), (0.6, 0.8)]

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(40):
            s = random_set(rng, 2, max_n=10)
            cache = build_cache(s)
            got = cache_point_set(cache)
            expect = {(round(x, 7), round(y, 7), i, j)
                      for x, y, i, j in exhaustive_uncovered_pairs_2d(s)}
            got_cmp = {t for t in got}
            assert got_cmp == expect


class TestBuildCache3d:
    def test_matches_exhaustive_triples(self, rng):
        for _ in range(12):
            s = random_set(rng, 3, max_n=8, radius_lo=0.15, radius_hi=0.5)
            cache = build_cache(s)
            got = {t for t in cache_point_set(cache) if len(t) == 6}
            expect = exhaustive_uncovered_triples_3d(s)
            assert got == expect

    def test_circle_statuses(self):
        # two spheres alone: fully uncovered circle
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
        cache = build_cache(s)
        assert [st for _, st in cache.circles.values()] == ["full"]
        # a third sphere cutting the circle demotes it to partial
        s2 = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0),
                       ((0.5, 1.0, 0), 0.6)])
        cache2 = build_cache(s2)
        assert cache2.circles[(0, 1)][1] == "partial"
        # a huge ball swallowing the circle drops it
        s3 = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0),
                       ((0.5, 0, 0), 1.4)])
        cache3 = build_cache(s3)
        assert (0, 1) not in cache3.circles


class TestUpdateOnInsert:
    def test_far_insert_keeps_points(self):
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        cache = build_cache(s)
        s.append(np.array([5.0, 5.0]), 0.2)
        update_cache_on_insert(cache, s, 2)
        assert len(cache.alive_rows()) == 2

    def test_covering_insert_removes_point(self):
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        cache = build_cache(s)
        s.append(np.array([0.6, 0.8]), 0.3)   # swallows the top lens point
        update_cache_on_insert(cache, s, 2)
        pts = [tuple(np.round(p, 7)) for p, h in points_and_hosts(cache)
               if set(h) == {0, 1}]
        assert (0.6, 0.8) not in pts
        assert (0.6, -0.8) in pts

    @pytest.mark.parametrize("dim", [2, 3])
    def test_insert_sequence_equals_rebuild(self, rng, dim):
        for trial in range(8):
            base = random_set(rng, dim, max_n=5, radius_lo=0.15,
                              radius_hi=0.5)
            cache = build_cache(base)
            for _ in range(4):
                p = rng.uniform(-0.8, 0.8, dim)
                v = rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0])
                idx = base.append(p, v)
                update_cache_on_insert(cache, base, idx)
            rebuilt = build_cache(base)
            assert cache_point_set(cache) == cache_point_set(rebuilt)
            if dim == 3:
                st1 = {k: v[1] for k, v in cache.circles.items()}
                st2 = {k: v[1] for k, v in rebuilt.circles.items()}
                assert st1 == st2


class TestGridCoverage:
    def test_matches_plain_coverage(self, rng):
        s = random_set(rng, 2, max_n=10)
        grid = build_ball_grid(s)
        qs = rng.uniform(-1.2, 1.2, (300, 2))
        fast = grid_points_uncovered(qs, s, grid)
        slow = points_uncovered(qs, s)
        np.testing.assert_array_equal(fast, slow)


PROPERTY = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def balls(dim, min_size, max_size):
    """Lists of (center, signed radius) with centers in [-0.8, 0.8]^dim."""
    return st.lists(
        st.tuples(st.lists(st.floats(-0.8, 0.8), min_size=dim,
                           max_size=dim),
                  st.floats(0.1, 0.5), st.sampled_from([-1.0, 1.0])),
        min_size=min_size, max_size=max_size)


def ring_with_nested(dim, n):
    """n - 1 overlapping balls on a ring plus one nested in the first, which
    is fully covered."""
    t = 2.0 * np.pi * np.arange(n - 1) / (n - 1)
    ring = [([0.5 * np.cos(a), 0.5 * np.sin(a)] + [0.0] * (dim - 2), 0.3, 1.0)
            for a in t]
    return ring + [(ring[0][0], 0.1, 1.0)]


def ball_set(dim, balls):
    return SampleSet(np.reshape([c for c, _, _ in balls], (-1, dim)),
                     [r * sg for _, r, sg in balls])


class TestBallIndex:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_query_equals_brute_force(self, dim):
        # inserts past the initial capacity of 16 rows grow the table; a
        # "touch" box starts gap * tol past one ball's box on one axis
        @settings(PROPERTY, max_examples=80)
        @given(base=balls(dim, 0, 5), inserts=balls(dim, 0, 30),
               corners=st.lists(st.floats(-1.5, 1.5), min_size=2 * dim,
                                max_size=2 * dim),
               touch=st.none() | st.tuples(
                   st.integers(0, 34), st.integers(0, dim - 1),
                   st.sampled_from([-2.0, -0.5, 0.5, 2.0])))
        def check(base, inserts, corners, touch):
            s = ball_set(dim, base)
            grid = build_ball_grid(s)
            for c, r, _ in inserts:
                grid.insert_balls(np.array(c), r)
            lo = np.minimum(corners[:dim], corners[dim:])
            hi = np.maximum(corners[:dim], corners[dim:])
            if touch is not None and base + inserts:
                i, a, gap = touch
                c, r, _ = (base + inserts)[i % len(base + inserts)]
                lo, hi = np.subtract(c, r), np.add(c, r)
                lo[a] = c[a] + r + gap * s.tol_geom
                hi[a] = lo[a] + 0.1
            expect = []
            for i, (c, r, _) in enumerate(base + inserts):
                reach = r + s.tol_geom
                if all(x - reach <= h and x + reach >= w
                       for x, w, h in zip(c, lo, hi)):
                    expect.append(i)
            got = grid.query_bbox(lo, hi)
            assert len(grid) == len(base) + len(inserts)
            assert got.tolist() == expect

        check()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_split_coverage_matches_plain_coverage(self, dim):
        # enough points that points x balls exceeds the pair budget, so the
        # point set is split before the exact test
        @settings(PROPERTY, max_examples=15)
        @given(base=balls(dim, 10, 30), seed=st.integers(0, 2 ** 32 - 1))
        def check(base, seed):
            s = ball_set(dim, base)
            rng = np.random.default_rng(seed)
            m = 3 * _PAIR_BUDGET // len(s)
            # half uniform, half on the surface of their first host
            qs = rng.uniform(-1.2, 1.2, (m, dim))
            hosts = rng.integers(-1, len(s), (m, 3))
            on = np.arange(m // 2)
            hosts[on, 0] = rng.integers(0, len(s), on.size)
            u = rng.normal(size=(on.size, dim))
            qs[on] = (s.points[hosts[on, 0]] + s.radii[hosts[on, 0], None]
                      * u / np.linalg.norm(u, axis=1)[:, None])
            assert m * len(s) > _PAIR_BUDGET
            np.testing.assert_array_equal(
                grid_points_uncovered(qs, s, build_ball_grid(s), hosts=hosts),
                points_uncovered(qs, s, hosts=hosts))

        check()

    def test_large_ball_after_small_base(self):
        # a ball much larger than the base: the index must not grow with the
        # ratio of the radii (a grid with cells sized from the base would
        # give this ball about a million cells)
        s = make_set([((0, 0, 0), 0.1)])
        cache = build_cache(s)
        row = s.append(np.array([0.3, 0.0, 0.0]), 0.4)
        tracemalloc.start()
        try:
            update_cache_on_insert(cache, s, row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cache.grid) == 2
        assert peak < 2 ** 21
        rebuilt = build_cache(s)
        assert cache_point_set(cache) == cache_point_set(rebuilt)
        assert ({k: v[1] for k, v in cache.circles.items()}
                == {k: v[1] for k, v in rebuilt.circles.items()})


class TestProperties:
    @pytest.mark.parametrize("dim,examples", [(2, 100), (3, 20)])
    def test_incremental_cache_equals_rebuild(self, dim, examples):
        @settings(PROPERTY, max_examples=examples)
        @given(base=balls(dim, 1, 5), inserts=balls(dim, 1, 4))
        def check(base, inserts):
            s = ball_set(dim, base)
            cache = build_cache(s)
            for c, r, sg in inserts:
                update_cache_on_insert(cache, s, s.append(c, r * sg))
            rebuilt = build_cache(s)
            assert cache_point_set(cache) == cache_point_set(rebuilt)
            assert ({k: v[1] for k, v in cache.circles.items()}
                    == {k: v[1] for k, v in rebuilt.circles.items()})

        check()

    @pytest.mark.parametrize("dim,res,examples", [(2, (8, 20), 30),
                                                  (3, (3, 5), 8)])
    def test_cache_covered_spheres_are_borderline(self, dim, res, examples):
        # exact SDF samples of one ball: a valid set whose spheres meet
        # almost tangentially, where roundoff matters most; a sphere the
        # cache calls fully covered may only be a borderline one
        @settings(PROPERTY, max_examples=examples)
        @given(center=st.lists(st.floats(-0.2, 0.2), min_size=dim,
                               max_size=dim),
               radius=st.floats(0.3, 0.9),
               n=st.integers(*res), lo=st.floats(-1.4, -1.0))
        def check(center, radius, n, lo):
            grid = sample_grid(lambda p: circle_sdf(p, center, radius), dim,
                               n, lo, -lo)
            s = grid.to_sample_set()
            for i in find_fully_covered_spheres(s, cache=build_cache(s)):
                assert abs(sphere_coverage_margin(i, s, 1024)) <= 1e-5

        check()

    @pytest.mark.parametrize("dim,examples", [(2, 40), (3, 15)])
    def test_cutoff_keeps_verdicts(self, dim, examples):
        # ensure_cache nominates exhaustively up to _EXHAUSTIVE_MAX samples
        # and by raster above; the two nominations must give one verdict
        @settings(PROPERTY, max_examples=examples)
        @given(base=st.integers(1, 20).flatmap(lambda n: balls(dim, n, n)))
        @example(base=ring_with_nested(dim, _EXHAUSTIVE_MAX))
        @example(base=ring_with_nested(dim, _EXHAUSTIVE_MAX + 1))
        def check(base):
            s = ball_set(dim, base)
            exhaustive = build_cache(s, exhaustive=True)
            assert (find_fully_covered_spheres(s, cache=exhaustive)
                    == find_fully_covered_spheres(s, cache=build_cache(s)))

        check()


def cache_tables(cache):
    """Alive rows of both tables, in row order: (circle hosts, circle
    statuses, point hosts, points)."""
    circ, pt = cache._circ, cache._pt
    c = np.flatnonzero(circ.alive[:circ.n])
    p = np.flatnonzero(pt.alive[:pt.n])
    return circ.hosts[c], circ.status[c], pt.hosts[p], pt.xyz[p]


class TestInsertKernel:
    """The batched 3D insert against the per-neighbour loop it replaced
    (conftest.update_cache_on_insert_reference), on the same inserts."""

    @staticmethod
    def assert_same(s, inserts):
        kernel, reference = build_cache(s), build_cache(s)
        for c, v in inserts:
            idx = s.append(c, v)
            update_cache_on_insert(kernel, s, idx)
            update_cache_on_insert_reference(reference, s, idx)
            got, want = cache_tables(kernel), cache_tables(reference)
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b)
            np.testing.assert_allclose(got[3], want[3], rtol=0, atol=1e-12)

    def test_random_balls(self):
        # ``touch`` moves an insert onto the surface of an earlier ball, so
        # that the two spheres meet in a contact point
        @settings(PROPERTY, max_examples=40)
        @given(base=balls(3, 1, 8), inserts=balls(3, 1, 4),
               touch=st.lists(st.integers(-1, 11), min_size=4, max_size=4))
        def check(base, inserts, touch):
            s = ball_set(3, base)
            rows = []
            for (c, r, sg), j in zip(inserts, touch):
                c = np.array(c)
                if 0 <= j < len(s) + len(rows):
                    cj, rj = (s.points[j], s.radii[j]) if j < len(s) \
                        else (rows[j - len(s)][0], abs(rows[j - len(s)][1]))
                    u = (c - cj) / max(np.linalg.norm(c - cj), 1e-3)
                    c = cj + (rj + r) * u
                rows.append((c, r * sg))
            self.assert_same(s, rows)

        check()

    def test_sphere_lattice(self):
        # exact SDF samples of one sphere on a lattice, refined by exact
        # samples at random points: spheres that meet almost tangentially
        # and triple points found through several circles
        @settings(PROPERTY, max_examples=25)
        @given(n=st.integers(3, 4), radius=st.floats(0.5, 0.7),
               center=st.lists(st.floats(-0.05, 0.05), min_size=3,
                               max_size=3),
               at=st.lists(st.lists(st.floats(-0.9, 0.9), min_size=3,
                                    max_size=3), min_size=1, max_size=4))
        def check(n, radius, center, at):
            def sdf(p):
                return sphere_sdf(p, center, radius)

            s = sample_grid(sdf, 3, n, -1.0, 1.0).to_sample_set()
            self.assert_same(s, [(np.array(q), float(sdf(np.array(q))[0]))
                                 for q in at])

        check()


class TestNominations:
    @pytest.mark.parametrize("dim,res,examples", [(2, 16, 200), (3, 8, 100)])
    def test_arrays_equal_reference(self, dim, res, examples):
        # coarse rasters, so that many pixels carry four or more marks
        largest = []

        @settings(PROPERTY, max_examples=examples)
        @given(base=balls(dim, 0, 9))
        @example(base=[])                                   # no marks at all
        @example(base=[([0.1] * dim, 0.4, 1.0)])            # one sphere
        def check(base):
            s = ball_set(dim, base)
            n = len(s)
            pix, sph, _ = _raster_marks(s, res)
            pairs, triples = _raster_nominations(pix, sph, n, dim)
            ref_pairs, ref_triples = raster_nominations_reference(
                pix, sph, n, dim)
            assert pairs.dtype == triples.dtype == np.intp
            np.testing.assert_array_equal(
                pairs, np.array(sorted(ref_pairs), dtype=np.intp)
                .reshape(-1, 2))
            np.testing.assert_array_equal(
                triples, np.array(sorted(ref_triples), dtype=np.intp)
                .reshape(-1, 3))
            if pix.size:
                marks = np.unique(pix * n + sph)
                largest.append(np.unique(marks // n,
                                         return_counts=True)[1].max())

        check()
        assert max(largest) >= 4

    def test_key_range(self):
        _check_key_range(2 ** 21 - 1, 64, 3)        # n^3 just below 2^63
        _check_key_range(3 * 10 ** 9, 64, 2)        # 2D needs n^2 only
        with pytest.raises(SdfError, match="int64"):
            _check_key_range(2 ** 21, 64, 3)        # triple keys: n^3
        with pytest.raises(SdfError, match="int64"):
            _check_key_range(2 ** 3, 2 ** 20, 3)    # marks: res^3 * n
        with pytest.raises(SdfError, match="int64"):
            _check_key_range(2, 2 ** 31, 2)         # marks: res^2 * n

    def test_build_cache_checks_before_allocating(self):
        # a 2^21-per-axis raster would need 2^66 bytes of depth grid
        s = make_set([((0, 0, 0), 0.5), ((0.5, 0, 0), 0.5)])
        with pytest.raises(SdfError, match="int64"):
            build_cache(s, raster_res=2 ** 21)


class _Cell:
    def __init__(self, index, relevant):
        self.index = index
        self.relevant = np.asarray(relevant, dtype=np.intp)


class TestCulling:
    def test_kappa_infinite_no_removals(self):
        s = make_set([((0, 0), 0.5), ((0.4, 0), 0.2), ((0, 0.4), 0.1)])
        cells = [_Cell((0,), [0, 1, 2])]
        culled, removed, _ = cull_to_kappa(s, cells, np.inf)
        assert removed == []
        assert len(culled) == 3

    def test_largest_first(self):
        s = make_set([((0, 0), 0.5), ((0.4, 0), 0.2), ((0, 0.4), 0.1)])
        cells = [_Cell((0,), [0, 1, 2])]
        culled, removed, imap = cull_to_kappa(s, cells, 2)
        assert removed == [0]
        assert len(culled) == 2
        assert imap[0] == -1 and imap[1] == 0 and imap[2] == 1

    def test_monotone_counts(self, rng):
        s = random_set(rng, 2, max_n=8)
        n = len(s)
        cells = [_Cell((k,), rng.choice(n, size=rng.integers(1, n + 1),
                                        replace=False))
                 for k in range(5)]
        kappa = 2
        culled, removed, _ = cull_to_kappa(s, cells, kappa)
        retained = np.ones(n, dtype=bool)
        retained[removed] = False
        for c in cells:
            assert np.count_nonzero(retained[c.relevant]) <= kappa
        assert len(set(removed)) == len(removed)

    def test_insert_accepts_signed_sample(self):
        from sdfgrow.core import SignedSample
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        cache = build_cache(s)
        s.append(np.array([3.0, 3.0]), 0.2)
        update_cache_on_insert(cache, s,
                               SignedSample(np.array([3.0, 3.0]), 0.2))
        assert cache.n_synced == 3
