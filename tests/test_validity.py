import numpy as np
import pytest

from sdfgrow.fields import circle_sdf, sample_grid
from sdfgrow.validity import (
    check_validity,
    check_validity_oracle,
    pairwise_lipschitz,
)

from conftest import make_set, random_set, random_valid_set, sampled_sdf_set


class TestCheckValidity:
    def test_single_sphere_valid(self):
        assert check_validity(make_set([((0, 0), 1.0)])).valid

    def test_opposite_sign_overlap(self):
        rep = check_validity(make_set([((0, 0), 1.0), ((1, 0), -0.5)]))
        assert not rep.valid
        assert [v.indices for v in rep.by_kind("opposite-sign-overlap")] \
            == [(0, 1)]

    def test_fully_covered(self):
        rep = check_validity(make_set([((0, 0), 1.0), ((0.1, 0), 0.5)]))
        assert not rep.valid
        assert [v.indices for v in rep.by_kind("fully-covered-sphere")] \
            == [(1,)]

    def test_touching_opposite_signs_allowed(self):
        rep = check_validity(make_set([((0, 0), 1.0), ((1.5, 0), -0.5)]))
        assert rep.valid

    def test_contradictory_duplicate(self):
        rep = check_validity(make_set([((0, 0), 0.5), ((0, 0), 0.8)]))
        assert not rep.valid
        assert rep.by_kind("contradictory-duplicate")

    def test_equal_duplicates_fine(self):
        rep = check_validity(make_set([((0, 0), 0.5), ((0, 0), 0.5)]))
        assert rep.valid

    def test_violation_enumeration_exhaustive(self):
        rep = check_validity(make_set([
            ((0, 0), 1.0), ((0.05, 0), 0.5), ((-0.05, 0), 0.4),
        ]))
        covered = {v.indices[0] for v in rep.by_kind("fully-covered-sphere")}
        assert covered == {1, 2}


class TestExactSdfNearTangency:
    """Samples of an exact SDF meet almost tangentially.  Their computed
    crossings can sit ~1e-6 inside a host ball, which must not count as
    covering them."""

    @pytest.mark.parametrize("dim,center,radius,res,lo", [
        (2, (-0.08591588, -0.07404521), 0.9844985359875325, 15, -1.4),
        (3, (0.03, -0.02, 0.01), 0.7, 6, -1.0),
        # 121 samples, which the removed cache-free check used to decide
        (2, (0.07937053797883742, -0.0832085536048596), 0.9355695748967945,
         11, -1.289850249220769),
    ])
    def test_exact_sdf_is_valid(self, dim, center, radius, res, lo):
        grid = sample_grid(lambda p: circle_sdf(p, center, radius), dim, res,
                           lo, -lo)
        assert check_validity(grid.to_sample_set()).valid


class TestOracleAgreement:
    def test_known_examples_agree(self):
        for rows, expect in [
            ([((0, 0), 1.0)], True),
            ([((0, 0), 1.0), ((1, 0), -0.5)], False),
            ([((0, 0), 1.0), ((0.1, 0), 0.5)], False),
        ]:
            s = make_set(rows)
            assert check_validity(s).valid is expect
            assert check_validity_oracle(s, 4096) is expect

    def test_disjoint_positive_spheres(self, rng):
        # rejection-sample a disjoint configuration
        while True:
            pts = rng.uniform(-0.8, 0.8, (8, 2))
            radii = rng.uniform(0.05, 0.25, 8)
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            if np.all(d > radii[:, None] + radii[None, :]):
                break
        s = make_set(list(zip(map(tuple, pts), radii)))
        assert check_validity(s).valid
        assert check_validity_oracle(s, 64)

    def test_random_agreement_2d(self, rng):
        for _ in range(100):
            s = random_set(rng, 2, max_n=8)
            a = check_validity(s).valid
            b = check_validity_oracle(s, 2048)
            assert a == b

    def test_random_agreement_3d(self, rng):
        for _ in range(40):
            s = random_set(rng, 3, max_n=6)
            a = check_validity(s).valid
            b = check_validity_oracle(s, 2048)
            assert a == b


class TestLipschitz:
    def test_examples(self):
        assert pairwise_lipschitz(make_set([((0, 0), 1.0), ((3, 0), 2.0)]))
        assert not pairwise_lipschitz(
            make_set([((0, 0), 1.0), ((0.1, 0), 0.5)]))

    def test_necessary_for_validity(self, rng):
        for _ in range(60):
            s = random_valid_set(rng, 2, max_n=8)
            assert pairwise_lipschitz(s)
        for _ in range(20):
            s = sampled_sdf_set(rng, 2)
            assert check_validity(s).valid
            assert pairwise_lipschitz(s)

    def test_removal_keeps_validity(self, rng):
        # coverage is monotone: dropping spheres never invalidates the rest
        for _ in range(25):
            s = random_valid_set(rng, 2, max_n=6)
            if len(s) < 2:
                continue
            keep = [i for i in range(len(s)) if i != 0]
            sub, _ = s.subset(keep)
            assert check_validity(sub).valid
