import numpy as np
import pytest

from sdfgrow.dos import build_dos, refine
from sdfgrow.fields import circle_sdf, halfspace_sdf, sample_grid, sphere_sdf
from sdfgrow.recon import (
    MeshHoleError,
    NarrowBand,
    band_from_values,
    boundary_edges,
    complete_narrow_band,
    extract_mesh,
)
from sdfgrow.validity import check_validity


def analytic_band(fn, dim, res, lo, hi, iso=0.0):
    """NarrowBand over the full lattice, values straight from a field."""
    h = (hi - lo) / res
    origin = np.full(dim, lo + 0.5 * h)
    import itertools
    values = {}
    for idx in itertools.product(*[range(res)] * dim):
        p = origin + h * np.asarray(idx)
        values[idx] = float(fn(p[None, :])[0])
    return NarrowBand(dim=dim, resolution=(res,) * dim, origin=origin,
                      spacing=h, iso=iso, values=values)


def polyline_loops(mesh):
    nxt = {int(a): int(b) for a, b in mesh.elements}
    loops = []
    seen = set()
    for start in list(nxt):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = nxt[start]
        while cur != start:
            loop.append(cur)
            seen.add(cur)
            cur = nxt[cur]
        loops.append(loop)
    return loops


def winding_number(mesh, point):
    total = 0.0
    v = mesh.vertices - np.asarray(point)
    for a, b in mesh.elements:
        pa, pb = v[int(a)], v[int(b)]
        total += np.arctan2(pa[0] * pb[1] - pa[1] * pb[0],
                            pa[0] * pb[0] + pa[1] * pb[1])
    return total / (2 * np.pi)


class TestMarchingSquares:
    def test_line_exact(self):
        band = analytic_band(lambda p: halfspace_sdf(p, (0, 1), 0.137),
                             2, 16, -1, 1)
        mesh = extract_mesh(band)
        assert mesh.n_elements > 0
        np.testing.assert_allclose(mesh.vertices[:, 1], 0.137, atol=1e-12)

    def test_oblique_line_exact(self):
        n = np.array([1.0, 2.0]) / np.sqrt(5)
        band = analytic_band(lambda p: halfspace_sdf(p, n, 0.04), 2, 16, -1, 1)
        mesh = extract_mesh(band)
        err = np.abs(mesh.vertices @ n - 0.04)
        assert err.max() <= 1e-9

    def test_circle_closed_and_wound(self):
        band = analytic_band(lambda p: circle_sdf(p, radius=0.5), 2, 32,
                             -1, 1)
        mesh = extract_mesh(band)
        assert boundary_edges(mesh) == []
        loops = polyline_loops(mesh)
        assert len(loops) == 1
        assert winding_number(mesh, (0.0, 0.0)) == pytest.approx(1.0)
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 0.5).max() <= band.spacing

    def test_offset_iso(self):
        band = analytic_band(lambda p: circle_sdf(p, radius=0.5), 2, 32,
                             -1, 1, iso=0.15)
        mesh = extract_mesh(band)
        assert boundary_edges(mesh) == []
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 0.65).max() <= band.spacing

    def test_hole_reported(self):
        band = analytic_band(lambda p: circle_sdf(p, radius=0.5), 2, 16,
                             -1, 1)
        # remove one sample adjacent to the zero crossing
        victim = min(band.values, key=lambda k: abs(band.values[k]))
        del band.values[victim]
        with pytest.raises(MeshHoleError):
            extract_mesh(band)

    def test_saddle_deterministic(self):
        # checkerboard corners force both saddle cases
        values = {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): -1.0}
        band = NarrowBand(dim=2, resolution=(2, 2),
                          origin=np.zeros(2), spacing=1.0, iso=0.0,
                          values=values)
        mesh = extract_mesh(band)
        assert mesh.n_elements == 2


class TestMarchingCubes:
    def test_plane_exact(self):
        band = analytic_band(lambda p: halfspace_sdf(p, (0, 0, 1), 0.09),
                             3, 10, -1, 1)
        mesh = extract_mesh(band)
        assert mesh.n_elements > 0
        # linear data is reproduced exactly; the open rim at the lattice
        # border is expected
        np.testing.assert_allclose(mesh.vertices[:, 2], 0.09, atol=1e-12)

    def test_sphere_watertight(self):
        band = analytic_band(lambda p: sphere_sdf(p, radius=0.55), 3, 12,
                             -1, 1)
        mesh = extract_mesh(band)
        assert mesh.n_elements > 0
        assert boundary_edges(mesh) == []
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 0.55).max() <= band.spacing * np.sqrt(3)


class TestBandFromValues:
    def test_array_roundtrip(self):
        g = sample_grid(lambda p: circle_sdf(p, radius=0.5), 2, 12, -1, 1)
        band = band_from_values(g.values, g.resolution, g.origin, g.spacing)
        assert band.values[(0, 0)] == g.values[0]
        assert band.values[(3, 2)] == g.values[g.flat_index((3, 2))]


class TestCompleteNarrowBand:
    def test_band_is_complete_and_valid(self):
        g = sample_grid(lambda p: circle_sdf(p, radius=1.0), 2, 15,
                        -1.4, 1.4)
        dos = build_dos(g)
        refine(dos, 2)
        band = complete_narrow_band(dos)
        mesh = extract_mesh(band)     # raises on incomplete straddling cells
        assert boundary_edges(mesh) == []
        # the filled samples keep the union valid jointly
        working = dos.working.copy()
        for idx in sorted(band.filled):
            working.append(band.point_of(idx), band.values[idx])
        assert check_validity(working).valid

    def test_all_corners_present_is_identity(self):
        g = sample_grid(lambda p: circle_sdf(p, radius=0.5), 2, 16, -1, 1)
        dos = build_dos(g)
        band = complete_narrow_band(dos)   # tau=0: fine lattice = grid
        for idx, v in band.values.items():
            if idx not in band.filled:
                assert v == g.values[g.flat_index(idx)]

    def test_worker_count_invariant(self):
        g = sample_grid(lambda p: circle_sdf(p, radius=0.6), 2, 8, -1, 1)
        dos = build_dos(g)
        refine(dos, 2)
        a = complete_narrow_band(dos, workers=1)
        b = complete_narrow_band(dos, workers=2)
        assert a.filled and a.filled == b.filled
        assert a.values == b.values

    def test_missing_corner_filled_with_min_valid(self):
        g = sample_grid(lambda p: circle_sdf(p, radius=1.0), 2, 15,
                        -1.4, 1.4)
        dos = build_dos(g)
        refine(dos, 2)
        band = complete_narrow_band(dos)
        assert band.filled
        # straddling cells have every corner
        mesh = extract_mesh(band)
        assert mesh.n_elements > 0
