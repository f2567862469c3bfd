import numpy as np
import pytest

from sdfgrow.accel import IntersectionCache
from sdfgrow.core import InputInvalidError, SampleSet, SignedSample
from sdfgrow.interp import (
    MODE_REFINE,
    MODE_REPAIR,
    GrowToCandidate,
    grow_to_points,
    interpolate_sdf_to,
    min_valid_radius,
    score_for_radius,
    validity_with_candidate,
)
from sdfgrow.fields import circle_sdf, sample_grid
from sdfgrow.validity import check_validity

from conftest import make_set, random_valid_set, sampled_sdf_set


def kinds_and_points(cands):
    return sorted((c.kind, tuple(np.round(c.point, 7))) for c in cands)


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
        kinds = {c.kind for c in cands}
        assert "circle-extreme" not in kinds
        assert "tangent" in kinds

    def test_off_axis_circle_extremes_present(self):
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
        cands = grow_to_points(np.array([0.5, 2.0, 0.0]), s)
        ext = [tuple(np.round(c.point, 7)) for c in cands
               if c.kind == "circle-extreme"]
        rho = round(np.sqrt(3) / 2, 7)
        assert (0.5, rho, 0.0) in ext and (0.5, -rho, 0.0) in ext

    def test_partial_circles_only_in_repair_mode(self):
        s = make_set([((0, 0, 0), 1.0), ((1, 0, 0), 1.0),
                      ((0.5, 1.0, 0), 0.6)])
        p = np.array([0.5, -2.0, 0.0])
        refine_hosts = {frozenset(h for h, _ in c.hosts)
                        for c in grow_to_points(p, s, mode=MODE_REFINE)
                        if c.kind == "circle-extreme"}
        repair_hosts = {frozenset(h for h, _ in c.hosts)
                        for c in grow_to_points(p, s, mode=MODE_REPAIR)
                        if c.kind == "circle-extreme"}
        assert frozenset({0, 1}) not in refine_hosts
        assert frozenset({0, 1}) in repair_hosts


class TestScore:
    def test_tangency_agree(self):
        p = np.array([0.5, 0.0])
        cand = GrowToCandidate(np.array([-1.0, 0.0]), "tangent",
                               ((0, SignedSample(np.array([0.0, 0.0]), 1.0)),))
        assert score_for_radius(p, 1.5, None, cand, 2.0) == pytest.approx(7.5)

    def test_tangency_disagree(self):
        p = np.array([0.7, 0.0])
        cand = GrowToCandidate(np.array([1.0, 0.0]), "tangent",
                               ((0, SignedSample(np.array([0.0, 0.0]), 1.0)),))
        assert score_for_radius(p, -0.3, None, cand, 2.0) \
            == pytest.approx(0.6)

    def test_intersection_disagree(self):
        p = np.array([2.0, 0.0])
        cand = GrowToCandidate(np.array([1.0, 0.0]), "intersection",
                               ((0, SignedSample(np.array([0.0, 0.0]), 1.0)),))
        assert score_for_radius(p, 1.0, None, cand, 2.0) == pytest.approx(3.0)

    def test_intersection_agree(self):
        p = np.array([2.0, 0.0])
        cand = GrowToCandidate(np.array([1.0, 0.0]), "intersection",
                               ((0, SignedSample(np.array([0.0, 0.0]), -1.0)),))
        assert score_for_radius(p, 1.0, None, cand, 2.0) == pytest.approx(5.0)

    def test_max_agreement_over_hosts(self):
        p = np.array([2.0, 0.0])
        agree = (1, SignedSample(np.array([0.0, 0.0]), -1.0))
        disagree = (0, SignedSample(np.array([0.0, 0.0]), 1.0))
        cand = GrowToCandidate(np.array([1.0, 0.0]), "intersection",
                               (disagree, agree))
        assert score_for_radius(p, 1.0, None, cand, 2.0) == pytest.approx(5.0)


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
