"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function by a timing wrapper in
every loaded ``sdfgrow`` module that binds it (modules import these
functions by name, and some import them lazily inside a call, which then
reads the patched home-module attribute).  Each call is a span; a stack of
the active spans gives self time, the inclusive time minus the time spent
in traced callees.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, attribute path) of every traced public function
TRACED = [
    ("dos", "build_dos"), ("dos", "refine"), ("dos", "covered_ratio"),
    ("validity", "check_validity"), ("validity", "find_fully_covered_spheres"),
    ("geom", "sphere_has_uncovered_point"),
    ("accel", "build_cache"), ("accel", "update_cache_on_insert"),
    ("accel", "cull_to_kappa"), ("accel", "grid_points_uncovered"),
    ("accel", "SpatialHashGrid.query_bbox"),
    ("interp", "interpolate_sdf_to"), ("interp", "grow_to_points"),
    ("interp", "validity_with_candidate"), ("interp", "min_valid_radius"),
    ("interp", "freeze_cache_for_queries"),
    ("repair", "find_fully_covered"), ("repair", "parallel_min_valid_radius"),
    ("recon", "complete_narrow_band"), ("recon", "extract_mesh"),
]

# counters read from return values: name -> (traced function, count of out)
COUNTERS = {
    "accel.build_cache.points": ("accel.build_cache",
                                 lambda out: len(out.alive_rows())),
    "accel.build_cache.circles": ("accel.build_cache",
                                  lambda out: len(out.circles)),
    "accel.cull_to_kappa.removed": ("accel.cull_to_kappa",
                                    lambda out: len(out[1])),
    "accel.grid_points_uncovered.points": ("accel.grid_points_uncovered",
                                           len),
    "interp.grow_to_points.candidates": ("interp.grow_to_points", len),
    "dos.refine.new_samples": ("dos.refine", len),
    "repair.find_fully_covered.covered": ("repair.find_fully_covered", len),
    "recon.complete_narrow_band.kept": ("recon.complete_narrow_band",
                                        lambda out: len(out.filled)),
}


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = {f"{m}.{a}": Span() for m, a in TRACED}
        self.counts = {name: 0 for name in COUNTERS}
        self.band_computed = 0        # min radii computed during band fill
        self._active = []             # [name, child seconds] per open span
        self._patched = []            # (owner, attribute, original)

    def _wrap(self, name, fn):
        counters = [(c, f) for c, (target, f) in COUNTERS.items()
                    if target == name]
        span = self.spans[name]
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            active.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active.pop()
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - frame[1]
                if active:
                    active[-1][1] += dt
            for counter, count in counters:
                self.counts[counter] += count(out)
            if (name == "repair.parallel_min_valid_radius"
                    and any(f[0] == "recon.complete_narrow_band"
                            for f in active)):
                self.band_computed += len(out)
            return out

        return traced

    def install(self):
        for module, path in TRACED:
            home = sys.modules[f"sdfgrow.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(f"{module}.{path}", original))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(f"{module}.{path}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sdfgrow"
                                       or mod_name.startswith("sdfgrow.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
