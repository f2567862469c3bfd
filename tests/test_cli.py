import numpy as np
import pytest

import sdfgrow.accel
import sdfgrow.cli
from sdfgrow.cli import main
from sdfgrow.fields import circle_sdf, sample_grid, two_circle_union_grid
from sdfgrow.gridio import read_grid, read_obj, read_scattered, write_grid
from sdfgrow.validity import check_validity


@pytest.fixture
def circle_grid_file(tmp_path):
    g = sample_grid(lambda p: circle_sdf(p, radius=0.6), 2, 12, -1, 1)
    path = tmp_path / "circle.sdfgrid"
    write_grid(g, path)
    return path


@pytest.fixture
def pseudo_grid_file(tmp_path):
    g = two_circle_union_grid(resolution=21)
    path = tmp_path / "pseudo.sdfgrid"
    write_grid(g, path)
    return path


class TestValidate:
    def test_valid_exit_zero(self, circle_grid_file, capsys):
        assert main(["validate", str(circle_grid_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_overlap_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,s\n0,0,1\n1,0,-0.5\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "opposite-sign-overlap" in out and "(0, 1)" in out

    def test_covered_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,s\n0,0,1\n0.1,0,0.5\n")
        assert main(["validate", str(path)]) == 1
        assert "fully-covered-sphere" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope")]) == 2


class TestInterpolate:
    def test_golden(self, tmp_path, capsys):
        sdf = tmp_path / "one.csv"
        sdf.write_text("x,y,s\n0,0,1\n")
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0\n")
        assert main(["interpolate", str(sdf), "--points", str(pts)]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.5, abs=1e-9)

    def test_invalid_input_exit_one(self, tmp_path):
        sdf = tmp_path / "bad.csv"
        sdf.write_text("x,y,s\n0,0,1\n0.1,0,0.5\n")
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0\n")
        assert main(["interpolate", str(sdf), "--points", str(pts)]) == 1

    def test_one_cache_build(self, circle_grid_file, tmp_path, monkeypatch):
        # the validity check and the queries share one cache
        calls = []
        original = sdfgrow.accel.build_cache

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sdfgrow.accel, "build_cache", counting)
        monkeypatch.setattr(sdfgrow.cli, "build_cache", counting)
        pts = tmp_path / "pts.csv"
        pts.write_text("0.05,0.55\n-0.7,0\n")
        assert main(["interpolate", str(circle_grid_file), "--points",
                     str(pts)]) == 0
        assert len(calls) == 1


class TestRefine:
    def test_tau_zero_identity(self, circle_grid_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["refine", str(circle_grid_file), "--tau", "0",
                     "--kappa", "inf", "-o", str(out)]) == 0
        back = read_scattered(out)
        g = read_grid(circle_grid_file)
        np.testing.assert_array_equal(back.values, g.values)

    def test_refined_output_validates(self, circle_grid_file, tmp_path,
                                      capsys):
        out = tmp_path / "out.csv"
        assert main(["refine", str(circle_grid_file), "--tau", "2",
                     "--kappa", "inf", "-o", str(out)]) == 0
        back = read_scattered(out)
        assert len(back) > read_grid(circle_grid_file).n
        assert check_validity(back).valid
        log = capsys.readouterr().err
        assert "tau=2" in log

    def test_default_kappa_logged(self, circle_grid_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["refine", str(circle_grid_file), "--tau", "0",
                     "-o", str(out)]) == 0
        log = capsys.readouterr().err
        assert "kappa=48" in log   # 4*sqrt(144)


class TestReconstruct:
    def test_circle_polyline(self, circle_grid_file, tmp_path):
        out = tmp_path / "m.obj"
        assert main(["reconstruct", str(circle_grid_file), "--tau", "2",
                     "--kappa", "inf", "-o", str(out)]) == 0
        mesh = read_obj(out)
        assert mesh.dim == 2
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 0.6).max() < 0.05

    def test_reproducible(self, circle_grid_file, tmp_path):
        a = tmp_path / "a.obj"
        b = tmp_path / "b.obj"
        for out in (a, b):
            assert main(["reconstruct", str(circle_grid_file), "--tau", "1",
                         "--kappa", "inf", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRepairCmd:
    def test_repair_and_reload(self, pseudo_grid_file, tmp_path, capsys):
        out = tmp_path / "fixed.sdfgrid"
        assert main(["repair", str(pseudo_grid_file), "-o", str(out)]) == 0
        fixed = read_grid(out)
        assert check_validity(fixed.to_sample_set()).valid
        assert "repaired" in capsys.readouterr().err

    def test_worker_flag_same_bytes(self, pseudo_grid_file, tmp_path):
        a = tmp_path / "a.sdfgrid"
        b = tmp_path / "b.sdfgrid"
        assert main(["repair", str(pseudo_grid_file), "--workers", "1",
                     "-o", str(a)]) == 0
        assert main(["repair", str(pseudo_grid_file), "--workers", "2",
                     "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_not_repairable_exit_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        # opposite-sign overlap cannot be repaired; also not a grid file
        g = sample_grid(lambda p: circle_sdf(p, radius=0.6), 2, 4, -1, 1)
        g.values[0] = -2.0
        gp = tmp_path / "bad.sdfgrid"
        write_grid(g, gp)
        assert main(["repair", str(gp), "-o", str(tmp_path / "x")]) == 1


class TestMetricsCmd:
    def test_self_comparison(self, circle_grid_file, tmp_path, capsys):
        out = tmp_path / "m.obj"
        main(["reconstruct", str(circle_grid_file), "--tau", "1",
              "--kappa", "inf", "-o", str(out)])
        capsys.readouterr()
        assert main(["metrics", "--mesh", str(out), "--ref", str(out),
                     "--samples", "2000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("chamfer ")
        assert lines[1].startswith("hausdorff ")
        assert float(lines[0].split()[1]) < 1e-6


class TestHelp:
    def test_help_documents_defaults(self, capsys):
        for sub in ("refine", "reconstruct", "repair"):
            with pytest.raises(SystemExit):
                main([sub, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            if sub in ("refine", "reconstruct"):
                assert "4*sqrt(n)" in out and "8*n^(1/3)" in out
                assert "2 when d=3 and n>20^3, else 3" in out
            assert "10*n^(1/d)" in out


class TestToleranceFlags:
    def test_geometric_tolerance_threads_through(self, tmp_path):
        # spheres overlapping by less than the loosened tolerance
        path = tmp_path / "s.csv"
        path.write_text("x,y,s\n0,0,1\n1.499,0,-0.5\n")
        assert main(["validate", str(path)]) == 1
        assert main(["validate", str(path), "--tol-geom", "0.01"]) == 0
