"""Interpolating one consistent value.

A sphere grown at the query point can only gain or lose validity when its
surface sweeps past a finite set of grow-to points: tangencies with existing
spheres, uncovered intersection points, and (in 3D) extreme points of
uncovered intersection circles.  Each candidate radius gets a score --
tangency with agreeing normals first, larger magnitudes next, inside values
preferred -- and the best one that keeps the whole set valid wins.  The
minimum-magnitude candidate needs no validity checks at all.
"""

import numpy as np

from sdfgrow import SampleSet, check_validity, grow_to_points, \
    interpolate_sdf_to, min_valid_radius, radius_scores
from sdfgrow.interp import KIND_NAMES

s = SampleSet([[0.0, 0.0], [1.2, 0.0]], [1.0, 1.0])
p = np.array([0.6, 0.0])

print("two unit circles at (0,0) and (1.2,0); query point", p)
print()
print("grow-to candidates (covered ones already filtered):")
max_radius = 2 * np.sqrt(2)
cands = grow_to_points(p, s)
dist = np.linalg.norm(cands.points - p, axis=1)
scores = {sgn: radius_scores(p, sgn * dist, cands, s, max_radius)
          for sgn in (+1, -1)}
for k in range(len(cands)):
    print(f"  {KIND_NAMES[cands.kind[k]]:<14} q={np.round(cands.points[k], 6)}"
          f"  |s|={dist[k]:.6f}  score(+)={scores[1][k]:.3f}"
          f"  score(-)={scores[-1][k]:.3f}")

best = interpolate_sdf_to(p, s, max_radius=max_radius)
smallest = min_valid_radius(p, s)
print()
print(f"best-scoring valid value : {best:+.6f}")
print(f"minimum valid value      : {smallest:+.6f}")

for v in (best, smallest):
    aug = s.copy()
    aug.append(p, v)
    print(f"augmented set with {v:+.4f}: {check_validity(aug)!s}")

print()
print("naive alternatives break the set:")
for label, v in (("bilinear-ish average", 0.4),
                 ("distance to nearest sample", 0.6)):
    aug = s.copy()
    aug.append(p, v)
    print(f"  {label:<28} s={v:+.3f}: {check_validity(aug)!s}")
