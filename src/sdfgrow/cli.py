"""Batch command-line driver.

Exit codes: 0 success, 1 validity/repairability failure, 2 I/O or parse
error.  Logs go to stderr, data to stdout or the requested output files.
Worker count defaults to the SDFGROW_WORKERS environment variable, raster
resolution to SDFGROW_RASTER_RES; explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .accel import build_cache, raster_resolution_auto
from .core import (
    InputInvalidError,
    NotRepairableError,
    ParseError,
    default_kappa,
    default_tau,
)
from .dos import build_dos, refine
from .gridio import (
    read_grid,
    read_obj,
    read_scattered,
    write_grid,
    write_obj,
    write_scattered,
)
from .interp import interpolate_sdf_to
from .metrics import chamfer, hausdorff_approx
from .recon import complete_narrow_band, extract_mesh
from .repair import repair_pseudo_sdf
from .validity import check_validity


def _log(*args):
    print(*args, file=sys.stderr)


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"environment variable {name}={raw!r} is not an int")


def _read_samples(path, tol_unique=None, tol_geom=None):
    """Grid file or scattered CSV, decided by the magic header."""
    tols = {}
    if tol_unique is not None:
        tols["tol_unique"] = tol_unique
    if tol_geom is not None:
        tols["tol_geom"] = tol_geom
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("SDFGRID"):
        grid = read_grid(path)
        return grid, grid.to_sample_set(**tols)
    samples = read_scattered(path)
    if tols:
        from .core import SampleSet
        samples = SampleSet(samples.points, samples.values, **tols)
    return None, samples


def _read_grid_input(path):
    grid, _ = _read_samples(path)
    if grid is None:
        raise ParseError(f"{path}: this command needs an SDFGRID input")
    return grid


def _resolve(value, auto):
    if value is None or (isinstance(value, str) and value == "auto"):
        return auto
    return value


def _kappa_arg(raw):
    if raw in (None, "auto"):
        return "auto"
    if raw in ("inf", "none"):
        return np.inf
    return int(raw)


def cmd_validate(args):
    _, samples = _read_samples(args.input, args.tol_unique, args.tol_geom)
    report = check_validity(samples)
    print(report)
    return 0 if report.valid else 1


def cmd_interpolate(args):
    _, samples = _read_samples(args.input, args.tol_unique, args.tol_geom)
    cache = build_cache(samples, raster_res=args.raster_res)
    report = check_validity(samples, cache=cache)
    if not report.valid:
        _log("input is not a valid discrete SDF:")
        _log(report)
        return 1
    pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
    if pts.shape[1] != samples.dim:
        raise ParseError(f"{args.points}: query points must be "
                         f"{samples.dim}-dimensional")
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        for p in pts:
            s = interpolate_sdf_to(p, samples, cache=cache, assume_valid=True)
            out.write(format(s, ".17g") + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _build_refined(args):
    grid = _read_grid_input(args.input)
    n = grid.n
    tau = _resolve(args.tau, default_tau(n, grid.dim))
    kappa = args.kappa
    if kappa == "auto":
        kappa = default_kappa(n, grid.dim)
    _log(f"n={n} d={grid.dim} tau={tau} kappa={kappa} "
         f"raster={args.raster_res or raster_resolution_auto(n, grid.dim)}")
    dos = build_dos(grid, kappa=kappa, raster_res=args.raster_res,
                    tol_unique=args.tol_unique, tol_geom=args.tol_geom)
    refine(dos, tau)
    _log(f"new samples: {len(dos.new_samples)}, culled: {len(dos.removed)}")
    return dos


def cmd_refine(args):
    dos = _build_refined(args)
    if args.output:
        write_scattered(dos.working, args.output)
    else:
        write_scattered(dos.working, "/dev/stdout")
    return 0


def cmd_reconstruct(args):
    dos = _build_refined(args)
    band = complete_narrow_band(dos, iso=args.iso, workers=args.workers)
    mesh = extract_mesh(band)
    _log(f"band: {len(band.values)} samples ({len(band.filled)} filled), "
         f"mesh: {mesh.n_vertices} vertices, {mesh.n_elements} elements")
    write_obj(mesh, args.output)
    return 0


def cmd_repair(args):
    grid = _read_grid_input(args.input)
    result = repair_pseudo_sdf(grid, workers=args.workers,
                               tol_unique=args.tol_unique,
                               tol_geom=args.tol_geom)
    _log(f"repaired {result.stats['changed']} of {result.stats['samples']} "
         f"samples in {result.stats['wall_time']:.3f}s "
         f"(workers={result.stats['workers']})")
    for i, old, new in result.changed:
        _log(f"  [{i}] {old:.9g} -> {new:.9g}")
    if args.output:
        write_grid(result.repaired, args.output)
    else:
        write_grid(result.repaired, "/dev/stdout")
    return 0


def cmd_metrics(args):
    mesh = read_obj(args.mesh)
    ref = read_obj(args.ref)
    print(f"chamfer {chamfer(mesh, ref, args.samples):.9g}")
    print(f"hausdorff {hausdorff_approx(mesh, ref, args.samples):.9g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdfgrow",
        description="Consistent signed-distance interpolation, refinement, "
                    "reconstruction and pseudo-SDF repair.")
    sub = parser.add_subparsers(dest="command", required=True)
    workers_default = _env_int("SDFGROW_WORKERS", 1)
    raster_default = _env_int("SDFGROW_RASTER_RES", 0) or None

    def add_common(p, grid_input=True):
        p.add_argument("input", help="input SDFGRID file or scattered CSV")
        p.add_argument("--raster-res", type=int, default=raster_default,
                       help="raster prefilter resolution per axis "
                            "(default: 10*n^(1/d) rounded up to a power of "
                            "two, at least 64)")
        p.add_argument("--tol-unique", type=float, default=None,
                       help="point uniqueness tolerance (default 1e-9)")
        p.add_argument("--tol-geom", type=float, default=None,
                       help="geometric tolerance (default 1e-6)")

    p = sub.add_parser("validate", help="check discrete SDF validity")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("interpolate",
                       help="interpolate consistent SDF values at points")
    add_common(p)
    p.add_argument("--points", required=True,
                   help="CSV of query points, one x,y[,z] row each")
    p.add_argument("-o", "--output", help="write values here (default stdout)")
    p.set_defaults(func=cmd_interpolate)

    for name, fn in (("refine", cmd_refine), ("reconstruct", cmd_reconstruct)):
        p = sub.add_parser(name)
        add_common(p)
        p.add_argument("--tau", type=int, default=None,
                       help="subdivision depth (default: 2 when d=3 and "
                            "n>20^3, else 3)")
        p.add_argument("--kappa", type=_kappa_arg, default="auto",
                       help="relevant-sphere cap per cell (default: "
                            "4*sqrt(n) in 2D, 8*n^(1/3) in 3D; 'inf' "
                            "disables culling)")
        p.add_argument("--workers", type=int, default=workers_default,
                       help="parallel workers for band completion")
        if name == "reconstruct":
            p.add_argument("--iso", type=float, default=0.0,
                           help="level set to extract (default 0)")
            p.add_argument("-o", "--output", required=True,
                           help="output OBJ path")
        else:
            p.add_argument("-o", "--output",
                           help="output scattered CSV (default stdout)")
        p.set_defaults(func=fn)

    p = sub.add_parser("repair", help="repair a sampled pseudo-SDF")
    add_common(p)
    p.add_argument("--workers", type=int, default=workers_default,
                   help="parallel workers (default: SDFGROW_WORKERS or 1)")
    p.add_argument("-o", "--output", help="output SDFGRID (default stdout)")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("metrics",
                       help="chamfer/hausdorff distance between two meshes")
    p.add_argument("--mesh", required=True, help="OBJ mesh to evaluate")
    p.add_argument("--ref", required=True, help="OBJ reference mesh")
    p.add_argument("--samples", type=int, default=10000,
                   help="surface samples per direction")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        _log(f"error: {exc}")
        return 2
    except (InputInvalidError, NotRepairableError) as exc:
        _log(f"error: {exc}")
        if getattr(exc, "report", None) is not None:
            _log(exc.report)
        return 1


if __name__ == "__main__":
    sys.exit(main())
