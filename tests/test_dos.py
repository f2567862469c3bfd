import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdfgrow.core import (
    InputInvalidError,
    SampleSet,
    default_kappa,
    default_tau,
)
from sdfgrow.dos import DosCell, build_dos, covered_ratio, refine
from sdfgrow.fields import circle_sdf, sample_grid
from sdfgrow.validity import check_validity, pairwise_lipschitz

from conftest import make_set


def circle_grid(res=15, lo=-1.4, hi=1.4, radius=1.0):
    return sample_grid(lambda p: circle_sdf(p, radius=radius), 2, res, lo, hi)


class TestDefaults:
    def test_tau_rule(self):
        assert default_tau(15 ** 2, 2) == 3
        assert default_tau(20 ** 3, 3) == 3
        assert default_tau(20 ** 3 + 1, 3) == 2
        assert default_tau(45 ** 3, 3) == 2

    def test_kappa_rule(self):
        assert default_kappa(1600, 2) == 160
        assert default_kappa(100, 2) == 40
        assert default_kappa(8000, 3) == 160


class TestBuildDos:
    def test_interesting_flags(self):
        g = circle_grid()
        dos = build_dos(g)
        diag = g.spacing * np.sqrt(2)
        for cell in dos.levels[0].values():
            assert cell.interesting == (abs(cell.value) < diag / 2)
        ring = [c for c in dos.levels[0].values() if c.interesting]
        assert 20 < len(ring) < 80
        # interesting cells hug the zero set
        for c in ring:
            assert abs(np.linalg.norm(c.center) - 1.0) < diag

    def test_not_interesting_far_cell(self):
        g = circle_grid()
        dos = build_dos(g)
        corner = dos.levels[0][(0, 0)]
        assert not corner.interesting

    def test_relevant_superset(self):
        g = circle_grid()
        dos = build_dos(g)
        s = dos.working
        for cell in dos.levels[0].values():
            if not cell.interesting:
                continue
            r_max = max(0.5 * cell.diag + abs(cell.value), 0.75 * cell.diag)
            d = np.linalg.norm(s.points - cell.center, axis=1)
            touching = np.nonzero(d <= r_max + s.radii)[0]
            assert set(touching) <= set(cell.relevant)

    def test_invalid_grid_rejected(self):
        g = circle_grid(res=8)
        g.values[:] = np.abs(g.values) + 1.0   # wildly non-Lipschitz
        with pytest.raises(InputInvalidError):
            build_dos(g)


class TestCoveredRatio:
    def test_deep_inside(self):
        s = make_set([((0, 0), 2.0)])
        cell = DosCell(index=(0,), depth=0, lo=np.array([-0.1, -0.1]),
                       hi=np.array([0.1, 0.1]), center=np.zeros(2),
                       value=0.0, sample_index=0, diag=0.2 * np.sqrt(2),
                       interesting=True, relevant=np.array([0]))
        assert covered_ratio(cell, s) == 1.0

    def test_no_relevant(self):
        s = make_set([((0, 0), 2.0)])
        cell = DosCell(index=(0,), depth=0, lo=np.array([-0.1, -0.1]),
                       hi=np.array([0.1, 0.1]), center=np.zeros(2),
                       value=0.0, sample_index=0, diag=0.2 * np.sqrt(2),
                       interesting=True, relevant=np.array([], dtype=np.intp))
        assert covered_ratio(cell, s) == 0.0

    def test_half_plane_like(self):
        # giant sphere whose boundary bisects the cell vertically
        s = make_set([((-100.0, 0.0), 100.0)])
        cell = DosCell(index=(0,), depth=0, lo=np.array([-0.5, -0.5]),
                       hi=np.array([0.5, 0.5]), center=np.zeros(2),
                       value=0.0, sample_index=0, diag=np.sqrt(2),
                       interesting=True, relevant=np.array([0]))
        assert covered_ratio(cell, s) == pytest.approx(0.5, abs=1 / 8)


    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_norm_of_lattice_offsets(self, dim):
        # radii sit a tolerance past the distance, from the (512, k, 3)
        # norm, of a lattice point, where one ulp flips the verdict
        @settings(derandomize=True, deadline=None, max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40))
        def check(seed, k):
            rng = np.random.default_rng(seed)
            lo = rng.uniform(-1.0, 0.5, dim)
            hi = lo + rng.uniform(0.01, 0.5, dim)
            centers = rng.uniform(-1.2, 1.2, (k, dim))
            steps = (np.arange(8) + 0.5) / 8.0
            grids = np.meshgrid(*[lo[a] + steps * (hi[a] - lo[a])
                                  for a in range(dim)], indexing="ij")
            lattice = np.column_stack([g.ravel() for g in grids])
            d = np.linalg.norm(lattice[:, None, :] - centers[None, :, :],
                               axis=2)
            radii = d[rng.integers(0, 8 ** dim, k), np.arange(k)] + 1e-6
            s = SampleSet(centers, radii)
            inside = np.any(d < s.radii - s.tol_geom, axis=1)
            cell = DosCell(index=(0,), depth=0, lo=lo, hi=hi,
                           center=(lo + hi) / 2, value=0.0, sample_index=0,
                           diag=float(np.linalg.norm(hi - lo)),
                           interesting=True, relevant=np.arange(k))
            assert (covered_ratio(cell, s)
                    == np.count_nonzero(inside) / 8 ** dim)

        check()


class TestRefine:
    def test_tau_zero_no_new_samples(self):
        dos = build_dos(circle_grid())
        assert refine(dos, 0) == []

    def test_headline_guarantee(self):
        dos = build_dos(circle_grid())
        new = refine(dos, 2)
        assert len(new) > 0
        assert check_validity(dos.working).valid
        assert pairwise_lipschitz(dos.working)

    def test_radius_bounded_by_cell(self):
        dos = build_dos(circle_grid())
        children = {}
        refine(dos, 1, on_assign=lambda cell: children.update(
            {cell.index: cell}))
        assert children
        for idx, child in children.items():
            parent = dos.levels[0][tuple(i // 2 for i in idx)]
            bound = max(abs(parent.value) + child.diag / 2, child.diag)
            assert abs(child.value) <= bound + 1e-9

    def test_deterministic(self):
        a = build_dos(circle_grid())
        refine(a, 2)
        b = build_dos(circle_grid())
        refine(b, 2)
        assert len(a.new_samples) == len(b.new_samples)
        for (pa, va), (pb, vb) in zip(a.new_samples, b.new_samples):
            assert np.array_equal(pa, pb)
            assert va == vb

    def test_deeper_tau_extends_shallower(self):
        a = build_dos(circle_grid(res=9))
        refine(a, 1)
        b = build_dos(circle_grid(res=9))
        refine(b, 2)
        assert [tuple(p) + (v,) for p, v in a.new_samples] == \
            [tuple(p) + (v,) for p, v in b.new_samples[:len(a.new_samples)]]
        assert check_validity(b.working).valid

    def test_culling_keeps_validity_wrt_retained(self):
        g = circle_grid(res=12)
        dos = build_dos(g, kappa=default_kappa(g.n, 2))
        refine(dos, 2)
        assert check_validity(dos.working).valid
        assert len(dos.removed) >= 0


class TestTinyGrids:
    def test_three_by_three(self):
        g = circle_grid(res=3, lo=-1, hi=1, radius=0.7)
        dos = build_dos(g)
        refine(dos, 1)
        assert check_validity(dos.working).valid

    def test_all_interesting(self):
        g = circle_grid(res=4, lo=-0.4, hi=0.4, radius=0.35)
        dos = build_dos(g)
        refine(dos, 2)
        assert check_validity(dos.working).valid
