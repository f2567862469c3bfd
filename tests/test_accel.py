import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from sdfgrow.accel import (
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
from sdfgrow.fields import circle_sdf, sample_grid
from sdfgrow.geom import points_uncovered, sphere_has_uncovered_point
from sdfgrow.validity import sphere_coverage_margin

from conftest import (
    exhaustive_uncovered_pairs_2d,
    exhaustive_uncovered_triples_3d,
    make_set,
    random_set,
    raster_nominations_reference,
)


def cache_point_set(cache, ndigits=7):
    out = set()
    for pt, hosts in cache.points_and_hosts():
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
        got = sorted(tuple(np.round(p, 7)) for p, _ in cache.points_and_hosts())
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
        pts = [tuple(np.round(p, 7)) for p, h in cache.points_and_hosts()
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


# No shrink phase: shrinking drives the base set toward one small ball, whose
# hash grid then gives every large inserted ball about a million cells.
PROPERTY = settings(derandomize=True, deadline=None,
                    phases=[Phase.explicit, Phase.reuse, Phase.generate],
                    suppress_health_check=[HealthCheck.too_slow])


def balls(dim, min_size, max_size):
    """Lists of (center, signed radius) with centers in [-0.8, 0.8]^dim."""
    return st.lists(
        st.tuples(st.lists(st.floats(-0.8, 0.8), min_size=dim,
                           max_size=dim),
                  st.floats(0.1, 0.5), st.sampled_from([-1.0, 1.0])),
        min_size=min_size, max_size=max_size)


class TestProperties:
    @pytest.mark.parametrize("dim,examples", [(2, 100), (3, 20)])
    def test_incremental_cache_equals_rebuild(self, dim, examples):
        @settings(PROPERTY, max_examples=examples)
        @given(base=balls(dim, 1, 5), inserts=balls(dim, 1, 4))
        def check(base, inserts):
            s = SampleSet([c for c, _, _ in base],
                          [r * sg for _, r, sg in base])
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
    def test_cache_agrees_with_cache_free_decision(self, dim, res, examples):
        # exact SDF samples of one ball: a valid set whose spheres meet
        # almost tangentially, where roundoff matters most
        @settings(PROPERTY, max_examples=examples)
        @given(center=st.lists(st.floats(-0.2, 0.2), min_size=dim,
                               max_size=dim),
               radius=st.floats(0.3, 0.9),
               n=st.integers(*res), lo=st.floats(-1.4, -1.0))
        def check(center, radius, n, lo):
            grid = sample_grid(lambda p: circle_sdf(p, center, radius), dim,
                               n, lo, -lo)
            s = grid.to_sample_set()
            cache = build_cache(s)
            for i in range(len(s)):
                cached = sphere_has_uncovered_point(i, s, cache=cache)
                if cached != sphere_has_uncovered_point(i, s):
                    # only a borderline sphere may be decided either way
                    assert abs(sphere_coverage_margin(i, s, 1024)) <= 1e-5

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
            s = SampleSet(np.reshape([c for c, _, _ in base], (-1, dim)),
                          [r * sg for _, r, sg in base])
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
