import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdfgrow import accel, interp
from sdfgrow.accel import IntersectionCache, build_cache
from sdfgrow.core import (
    TOL_GEOM,
    InputInvalidError,
    SampleSet,
    default_max_radius,
)
from sdfgrow.interp import (
    CIRCLE_EXTREME,
    INTERSECTION,
    KIND_NAMES,
    MODE_REFINE,
    MODE_REPAIR,
    SELF,
    TANGENT,
    GrowToPoints,
    _ranked_radii,
    freeze_cache_for_queries,
    grow_to_points,
    interpolate_sdf_to,
    min_valid_radii,
    min_valid_radius,
    radius_scores,
    validity_with_candidate,
)
from sdfgrow.fields import circle_sdf, sample_grid
from sdfgrow.validity import check_validity

from conftest import (
    make_set,
    min_valid_radius_reference,
    random_valid_set,
    ranked_radii_reference,
    sampled_sdf_set,
)

PROPERTY = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SOURCES = st.sampled_from(["exact", "balls", "lattice"])


def kinds_and_points(cands):
    return sorted((KIND_NAMES[k], tuple(np.round(q, 7)))
                  for k, q in zip(cands.kind, cands.points))


def circle_extreme_hosts(cands):
    return {frozenset(int(h) for h in hs if h >= 0)
            for k, hs in zip(cands.kind, cands.hosts) if k == CIRCLE_EXTREME}


def query_case(seed, dim, source):
    """A valid set and a query point, both from ``seed``.  The set holds
    scattered samples of a true SDF, rejection-sampled balls, or a lattice
    of sphere samples queried at a cell corner or a sub-cell center, where
    symmetry makes candidates tie on score and distance."""
    rng = np.random.default_rng(seed)
    if source == "exact":
        s = sampled_sdf_set(rng, dim, n_points=int(rng.integers(2, 9)))
    elif source == "balls":
        s = random_valid_set(rng, dim, max_n=8)
    else:
        n = int(rng.integers(3, 6 if dim == 2 else 5))
        radius = float(rng.uniform(0.3, 0.7))
        s = sample_grid(lambda q: circle_sdf(q, (0.0,) * dim, radius), dim,
                        n).to_sample_set()
        h = 2.0 / n
        if rng.random() < 0.5:
            p = -1.0 + h * rng.integers(1, n, dim)
        else:
            p = -1.0 + h * (rng.integers(0, n, dim) + 0.5
                            + 0.25 * rng.choice([-1.0, 1.0], dim))
        return s, p, rng
    return s, rng.uniform(-1.0, 1.0, dim), rng


class TestGrowToPoints:
    def test_single_sphere(self):
        s = make_set([((0, 0), 1.0)])
        got = kinds_and_points(grow_to_points(np.array([0.5, 0.0]), s))
        assert got == [("self", (0.5, 0.0)),
                       ("tangent", (-1.0, 0.0)),
                       ("tangent", (1.0, 0.0))]

    def test_two_circles_coverage_filter(self):
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        got = kinds_and_points(grow_to_points(np.array([0.6, 0.0]), s))
        pts = {p for _, p in got}
        # uncovered intersections and the two surviving tangent points
        assert (0.6, 0.8) in pts and (0.6, -0.8) in pts
        assert (-1.0, 0.0) in pts and (2.2, 0.0) in pts
        # covered tangent points are filtered
        assert (1.0, 0.0) not in pts and (0.2, 0.0) not in pts

    def test_axis_degenerate_circle_contributes_nothing(self):
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
        cands = grow_to_points(np.array([2.0, 0.0, 0.0]), s)
        kinds = set(cands.kind.tolist())
        assert CIRCLE_EXTREME not in kinds
        assert TANGENT in kinds

    def test_off_axis_circle_extremes_present(self):
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
        cands = grow_to_points(np.array([0.5, 2.0, 0.0]), s)
        ext = [tuple(np.round(q, 7))
               for q in cands.points[cands.kind == CIRCLE_EXTREME]]
        rho = round(np.sqrt(3) / 2, 7)
        assert (0.5, rho, 0.0) in ext and (0.5, -rho, 0.0) in ext

    def test_partial_circles_only_in_repair_mode(self):
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0),
                      ((0.5, 1.0, 0), 0.6)])
        p = np.array([0.5, -2.0, 0.0])
        refine_hosts = circle_extreme_hosts(
            grow_to_points(p, s, mode=MODE_REFINE))
        repair_hosts = circle_extreme_hosts(
            grow_to_points(p, s, mode=MODE_REPAIR))
        assert frozenset({0, 1}) not in refine_hosts
        assert frozenset({0, 1}) in repair_hosts

    def test_record_layout(self):
        # the length counts every row, the query point included
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        cands = grow_to_points(np.array([0.6, 0.0]), s)
        assert len(cands) == cands.points.shape[0] == cands.hosts.shape[0]
        assert cands.kind.dtype == np.int8
        assert cands.kind[0] == SELF and np.all(cands.hosts[0] == -1)
        np.testing.assert_array_equal(cands.points[0], [0.6, 0.0])
        for k, hs in zip(cands.kind, cands.hosts):
            assert np.count_nonzero(hs >= 0) == \
                {SELF: 0, TANGENT: 1, INTERSECTION: 2}[k]


def one_candidate(point, kind, hosts):
    return GrowToPoints(np.array([point], dtype=np.float64),
                        np.array([kind], dtype=np.int8),
                        np.array([hosts + [-1] * (3 - len(hosts))]))


class TestScore:
    def test_tangency_agree(self):
        s = make_set([((0, 0), 1.0)])
        cand = one_candidate([-1.0, 0.0], TANGENT, [0])
        got = radius_scores(np.array([0.5, 0.0]), [1.5], cand, s, 2.0)
        assert got[0] == pytest.approx(7.5)

    def test_tangency_disagree(self):
        s = make_set([((0, 0), 1.0)])
        cand = one_candidate([1.0, 0.0], TANGENT, [0])
        got = radius_scores(np.array([0.7, 0.0]), [-0.3], cand, s, 2.0)
        assert got[0] == pytest.approx(0.6)

    def test_intersection_disagree(self):
        s = make_set([((0, 0), 1.0)])
        cand = one_candidate([1.0, 0.0], INTERSECTION, [0])
        got = radius_scores(np.array([2.0, 0.0]), [1.0], cand, s, 2.0)
        assert got[0] == pytest.approx(3.0)

    def test_intersection_agree(self):
        s = make_set([((0, 0), -1.0)])
        cand = one_candidate([1.0, 0.0], INTERSECTION, [0])
        got = radius_scores(np.array([2.0, 0.0]), [1.0], cand, s, 2.0)
        assert got[0] == pytest.approx(5.0)

    def test_max_agreement_over_hosts(self):
        # host 0 disagrees, host 1 (same point, opposite sign) agrees
        s = make_set([((0, 0), 1.0), ((0, 0), -1.0)])
        cand = one_candidate([1.0, 0.0], INTERSECTION, [0, 1])
        got = radius_scores(np.array([2.0, 0.0]), [1.0], cand, s, 2.0)
        assert got[0] == pytest.approx(5.0)


class TestRanking:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_reference_order(self, dim):
        # exact equality, floats included: the rows feed the validity checks
        # in this order, so any change moves interpolated values
        @settings(PROPERTY, max_examples=200 if dim == 2 else 120)
        @given(seed=st.integers(0, 2 ** 32 - 1), source=SOURCES,
               mode=st.sampled_from([MODE_REFINE, MODE_REPAIR]),
               tight=st.booleans(), subset=st.booleans())
        def check(seed, source, mode, tight, subset):
            s, p, rng = query_case(seed, dim, source)
            max_radius = (float(rng.uniform(0.05, 0.5)) if tight
                          else default_max_radius(dim))
            scope = np.arange(len(s), dtype=np.intp)
            if subset:
                scope = np.flatnonzero(rng.random(len(s)) < 0.7)
            cache = build_cache(s)
            want = ranked_radii_reference(p, s, max_radius, cache, mode,
                                          scope)
            values, cands, _ = _ranked_radii(p, s, max_radius, cache, mode,
                                             scope)
            got = [(v, KIND_NAMES[k], tuple(q)) for v, k, q in
                   zip(values.tolist(), cands.kind, cands.points)]
            assert got == want

        check()


class TestValidityWithCandidate:
    def test_boundary_contact_is_valid(self):
        s = make_set([((0, 0), 1.0)])
        assert validity_with_candidate(s, np.array([0.5, 0.0]), 1.5)

    def test_opposite_sign_overlap_invalid(self):
        s = make_set([((0, 0), 1.0)])
        assert not validity_with_candidate(s, np.array([0.5, 0.0]), -1.5)

    def test_covering_everything_invalid(self):
        s = make_set([((0, 0), 1.0)])
        assert not validity_with_candidate(s, np.array([0.5, 0.0]), 2.0)

    def test_equals_full_check(self, rng):
        for _ in range(60):
            s = random_valid_set(rng, 2, max_n=6)
            p = rng.uniform(-1, 1, 2)
            mag = rng.uniform(0.01, 1.0)
            for sgn in (1.0, -1.0):
                fast = validity_with_candidate(s, p, sgn * mag)
                s2 = s.copy()
                s2.append(p, sgn * mag)
                assert fast == check_validity(s2).valid

    def test_equals_full_check_3d(self, rng):
        for _ in range(25):
            s = random_valid_set(rng, 3, max_n=5)
            p = rng.uniform(-1, 1, 3)
            mag = rng.uniform(0.05, 0.8)
            for sgn in (1.0, -1.0):
                fast = validity_with_candidate(s, p, sgn * mag)
                s2 = s.copy()
                s2.append(p, sgn * mag)
                assert fast == check_validity(s2).valid


class TestInterpolate:
    @pytest.mark.parametrize("query", [interpolate_sdf_to, min_valid_radius])
    def test_input_check_shares_the_cache(self, query, monkeypatch):
        # counted at the class, whatever module binds build_cache
        calls = []
        original = IntersectionCache.__init__

        def counting(self, *args):
            calls.append(1)
            original(self, *args)

        monkeypatch.setattr(IntersectionCache, "__init__", counting)
        s = sample_grid(lambda p: circle_sdf(p, radius=0.6), 2, 15, -1,
                        1).to_sample_set()
        query(np.array([0.05, 0.3]), s)
        assert len(calls) == 1

    def test_golden_case(self):
        s = make_set([((0, 0), 1.0)])
        v = interpolate_sdf_to(np.array([0.5, 0.0]), s,
                               max_radius=2 * np.sqrt(2))
        assert abs(v - 1.5) <= 1e-9

    def test_empty_set_returns_zero(self):
        s = SampleSet(dim=2)
        assert interpolate_sdf_to(np.array([3.0, 0.0]), s) == 0.0

    def test_inside_negative_sphere_stays_negative(self):
        s = make_set([((0, 0), -1.0)])
        v = interpolate_sdf_to(np.array([0.2, 0.0]), s)
        assert v < 0

    def test_idempotent_at_existing_sample(self, rng):
        for _ in range(10):
            s = random_valid_set(rng, 2, max_n=6)
            i = int(rng.integers(0, len(s)))
            v = interpolate_sdf_to(s.points[i], s)
            assert v == s.values[i]

    def test_rejects_invalid_input(self):
        s = make_set([((0, 0), 1.0), ((0.1, 0), 0.5)])
        with pytest.raises(InputInvalidError):
            interpolate_sdf_to(np.array([0.5, 0.5]), s)

    def test_deterministic(self, rng):
        s = random_valid_set(rng, 2, max_n=7)
        p = rng.uniform(-1, 1, 2)
        a = interpolate_sdf_to(p, s)
        b = interpolate_sdf_to(p, s)
        assert a == b

    def test_augmented_stays_valid(self, rng):
        for _ in range(25):
            s = sampled_sdf_set(rng, 2, n_points=7)
            for p in rng.uniform(-0.95, 0.95, (8, 2)):
                v = interpolate_sdf_to(p, s, assume_valid=True)
                s2 = s.copy()
                s2.append(p, v)
                assert check_validity(s2).valid

    @pytest.mark.parametrize("dim", [2, 3])
    def test_output_keeps_set_valid(self, dim):
        @settings(PROPERTY, max_examples=150 if dim == 2 else 80)
        @given(seed=st.integers(0, 2 ** 32 - 1), source=SOURCES,
               mode=st.sampled_from([MODE_REFINE, MODE_REPAIR]),
               tight=st.booleans())
        def check(seed, source, mode, tight):
            s, p, rng = query_case(seed, dim, source)
            max_radius = float(rng.uniform(0.05, 0.5)) if tight else None
            v = interpolate_sdf_to(p, s, max_radius=max_radius, mode=mode,
                                   assume_valid=True)
            s2 = s.copy()
            s2.append(p, v)
            assert check_validity(s2).valid, (p, v)

        check()

    def test_max_radius_respected(self, rng):
        s = make_set([((0, 0), 1.0)])
        v = interpolate_sdf_to(np.array([0.5, 0.0]), s, max_radius=0.6)
        assert abs(v) <= 0.6 + 1e-9


class TestMinValidRadius:
    def test_golden_case(self):
        s = make_set([((0, 0), 1.0)])
        assert abs(min_valid_radius(np.array([0.5, 0.0]), s) - 0.5) <= 1e-9

    def test_outside_all_is_zero(self):
        s = make_set([((0, 0), 1.0)])
        assert min_valid_radius(np.array([3.0, 0.0]), s) == 0.0

    def test_two_circles(self):
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        v = min_valid_radius(np.array([0.6, 0.0]), s)
        assert v == pytest.approx(0.8, abs=1e-9)

    def test_sweep_oracle_minimality(self, rng):
        for _ in range(12):
            s = sampled_sdf_set(rng, 2, n_points=6)
            p = rng.uniform(-0.8, 0.8, 2)
            v = min_valid_radius(p, s, assume_valid=True)
            s2 = s.copy()
            s2.append(p, v)
            assert check_validity(s2).valid
            sgn = -1.0 if v < 0 else 1.0
            for r in np.arange(0.0, abs(v) - 1e-3, 1e-3):
                s3 = s.copy()
                s3.append(p, sgn * r)
                assert not check_validity(s3).valid, (p, v, r)

    def test_lower_bound_prunes(self):
        s = make_set([((0, 0), 1.0), ((1.2, 0), 1.0)])
        v = min_valid_radius(np.array([0.6, 0.0]), s, lower_bound=0.3)
        assert v == pytest.approx(0.8, abs=1e-9)

    def test_augmented_stays_valid(self, rng):
        for _ in range(20):
            s = sampled_sdf_set(rng, 2, n_points=7)
            for p in rng.uniform(-0.95, 0.95, (6, 2)):
                v = min_valid_radius(p, s, assume_valid=True)
                s2 = s.copy()
                s2.append(p, v)
                assert check_validity(s2).valid

    def test_sign_consistency(self, rng):
        s = make_set([((0, 0), -1.0), ((2.5, 0), 1.0)])
        assert min_valid_radius(np.array([0.3, 0.0]), s) < 0
        assert interpolate_sdf_to(np.array([0.3, 0.0]), s) < 0


class TestMinValidRadii:
    """The batched minimum valid radii against the scalar function they
    replaced (conftest.min_valid_radius_reference), row by row."""

    @staticmethod
    def queries(s, p, rng, cache):
        """Query rows: the case's point, random points, a sample point
        (coincident), points outside every ball and, in 3D, points on the
        axis of a cached circle and just inside its lens."""
        dim = s.dim
        rows = [p, *rng.uniform(-1.0, 1.0, (5, dim)),
                s.points[int(rng.integers(len(s)))],
                np.full(dim, 3.0), -np.full(dim, 2.5)]
        for circle, _ in list(cache.circles.values())[:3]:
            rows.append(circle.center + rng.uniform(-0.4, 0.4)
                        * circle.normal)
            e = np.cross(circle.normal, rng.normal(size=3))
            e /= np.linalg.norm(e)
            rows.append(circle.center
                        + rng.uniform(0.7, 0.99) * circle.radius * e)
        return np.array(rows)

    @staticmethod
    def assert_same(s, points, cache, signs=None, floors=None,
                    mode=MODE_REPAIR, indices=None):
        got = min_valid_radii(points, s, cache, signs=signs, floors=floors,
                              mode=mode, indices=indices)
        want = np.array([min_valid_radius_reference(
            q, s, lower_bound=0.0 if floors is None else floors[k],
            sign=None if signs is None else signs[k], cache=cache,
            mode=mode, indices=indices, assume_valid=True)
            for k, q in enumerate(points)])
        assert got.tobytes() == want.tobytes(), (got, want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_reference(self, dim):
        @settings(PROPERTY, max_examples=40 if dim == 2 else 30)
        @given(seed=st.integers(0, 2 ** 32 - 1), source=SOURCES,
               frozen=st.booleans(), forced=st.booleans(),
               floored=st.booleans(), scoped=st.booleans(),
               mode=st.sampled_from([MODE_REFINE, MODE_REPAIR]))
        def check(seed, source, frozen, forced, floored, scoped, mode):
            s, p, rng = query_case(seed, dim, source)
            cache = build_cache(s)
            if frozen:
                freeze_cache_for_queries(cache)
            points = self.queries(s, p, rng, cache)
            m = points.shape[0]
            signs = rng.choice([-1.0, 1.0], m) if forced else None
            floors = np.where(rng.random(m) < 0.5, 0.0,
                              rng.uniform(0.0, 0.5, m)) if floored else None
            indices = np.sort(rng.choice(len(s), max(1, len(s) - 2),
                                         replace=False)) if scoped else None
            self.assert_same(s, points, cache, signs, floors, mode, indices)

        check()

    def test_one_row_per_chunk(self, monkeypatch):
        s, p, rng = query_case(7, 3, "lattice")
        cache = freeze_cache_for_queries(build_cache(s))
        points = self.queries(s, p, rng, cache)
        whole = min_valid_radii(points, s, cache)
        chunks = []

        def chunk(p, *args):
            chunks.append(p.shape[0])
            return chunk_of(p, *args)

        chunk_of = interp._min_valid_chunk
        monkeypatch.setattr(interp, "_min_valid_chunk", chunk)
        monkeypatch.setattr(accel, "_PAIR_BUDGET", 1)
        assert min_valid_radii(points, s, cache).tobytes() == whole.tobytes()
        assert chunks == [1] * points.shape[0]
        self.assert_same(s, points, cache)

    def test_circle_axis_and_coverage_tolerance(self):
        # on the axis of the circle where two balls meet, every circle
        # point is nearest; the reference point stands for them all
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
        p = np.array([[0.5, 0.0, 0.0]])
        assert min_valid_radii(p, s, None)[0] == pytest.approx(np.sqrt(0.75))
        self.assert_same(s, p, build_cache(s))
        # the nearest tangent point of the second ball lies inside the
        # first by less than tol, so it counts as uncovered
        eps = 0.5 * TOL_GEOM
        s = make_set([((0, 0), 1.0), ((2, 0), 1.0 + eps)])
        p = np.array([[0.5, 0.0]])
        assert min_valid_radii(p, s, None)[0] == pytest.approx(0.5 - eps,
                                                               abs=1e-12)
        self.assert_same(s, p, build_cache(s))

    def test_first_round_answer_stays(self):
        # 40 small disjoint balls give 80 uncovered tangent points, more
        # than one round of 32; the nearest one, on the big ball, is kept
        t = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        s = make_set([((0.0, 0.0), 0.3)]
                     + [((0.7 * np.cos(a), 0.7 * np.sin(a)), 0.02) for a in t])
        p = np.array([[0.05, 0.0]])
        assert min_valid_radii(p, s, None)[0] == pytest.approx(0.25)
        self.assert_same(s, p, build_cache(s))
