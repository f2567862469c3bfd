"""Core data model: signed samples, sample sets and regular value grids.

Every sample (p, s) induces a sphere centered at p with radius |s|; the sign
of s marks the sphere as inside (negative) or outside (positive).  A value of
exactly 0 is treated as outside.  Sample sets keep their samples in insertion
order and expose them as flat numpy arrays for vectorized geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Uniqueness of points is decided much more strictly than general geometry.
TOL_UNIQUE = 1e-9
TOL_GEOM = 1e-6

# Everything is expected to live in [-1, 1]^d.
DOMAIN_LO = -1.0
DOMAIN_HI = 1.0


class SdfError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateGeometryError(SdfError):
    """A geometric construction has no well-defined answer."""


class InputInvalidError(SdfError):
    """An operation that requires a valid sample set received an invalid one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotRepairableError(SdfError):
    """The input violates more than the coverage condition (e.g. opposite-sign
    sphere overlap) and cannot be fixed by minimum-radius reassignment."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class ParseError(SdfError):
    """Malformed input file."""


@dataclass(frozen=True)
class SignedSample:
    """A point paired with a signed distance value."""

    point: np.ndarray
    value: float

    @property
    def radius(self):
        return abs(self.value)

    @property
    def sign(self):
        # 0 is conventionally outside
        return -1.0 if self.value < 0 else 1.0


class SampleSet:
    """Ordered collection of signed samples plus the tolerances used to
    interpret them.

    Points are stored in a growable (n, d) float64 array.  Indices are stable:
    removal never happens in place, culling builds a new set plus an index
    map.  ``append`` exists for the sequential refinement loop, which is the
    only sanctioned writer; everything else treats a set as read-only.
    """

    def __init__(self, points=None, values=None, dim=None,
                 tol_unique=TOL_UNIQUE, tol_geom=TOL_GEOM):
        if points is None:
            if dim is None:
                raise ValueError("need dim for an empty SampleSet")
            points = np.empty((0, dim), dtype=np.float64)
            values = np.empty((0,), dtype=np.float64)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        values = np.asarray(values, dtype=np.float64).ravel()
        if points.shape[0] != values.shape[0]:
            raise ValueError("points/values length mismatch")
        if points.size and not np.all(np.isfinite(points)):
            raise ValueError("non-finite sample point")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("non-finite sample value")
        if tol_unique <= 0 or tol_geom <= 0:
            raise ValueError("tolerances must be positive")
        n = points.shape[0]
        self._n = n
        cap = max(16, n)
        self._points = np.empty((cap, points.shape[1]), dtype=np.float64)
        self._values = np.empty((cap,), dtype=np.float64)
        self._points[:n] = points
        self._values[:n] = values
        self.tol_unique = float(tol_unique)
        self.tol_geom = float(tol_geom)

    # -- array views ------------------------------------------------------

    @property
    def points(self):
        return self._points[:self._n]

    @property
    def values(self):
        return self._values[:self._n]

    @property
    def radii(self):
        return np.abs(self._values[:self._n])

    @property
    def signs(self):
        """+1 for values >= 0, -1 for negative values."""
        return np.where(self._values[:self._n] < 0.0, -1.0, 1.0)

    @property
    def dim(self):
        return self._points.shape[1]

    def __len__(self):
        return self._n

    def __getitem__(self, i) -> SignedSample:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return SignedSample(self._points[i].copy(), float(self._values[i]))

    def append(self, point, value):
        """Append one sample, returning its index."""
        point = np.asarray(point, dtype=np.float64)
        if self._n == self._points.shape[0]:
            cap = 2 * self._n
            pts = np.empty((cap, self.dim), dtype=np.float64)
            vals = np.empty((cap,), dtype=np.float64)
            pts[:self._n] = self._points[:self._n]
            vals[:self._n] = self._values[:self._n]
            self._points, self._values = pts, vals
        self._points[self._n] = point
        self._values[self._n] = float(value)
        self._n += 1
        return self._n - 1

    def copy(self):
        return SampleSet(self.points.copy(), self.values.copy(),
                         tol_unique=self.tol_unique, tol_geom=self.tol_geom)

    def subset(self, keep):
        """New set with the rows in ``keep`` (in order) plus the index map
        old index -> new index (-1 for dropped rows)."""
        keep = np.asarray(keep, dtype=np.intp)
        sub = SampleSet(self.points[keep], self.values[keep],
                        tol_unique=self.tol_unique, tol_geom=self.tol_geom)
        index_map = np.full(self._n, -1, dtype=np.intp)
        index_map[keep] = np.arange(len(keep))
        return sub, index_map

    def find_coincident(self, point):
        """Index of a sample whose point coincides with ``point`` within
        tol_unique, or -1."""
        if self._n == 0:
            return -1
        d = np.linalg.norm(self.points - np.asarray(point, dtype=np.float64),
                           axis=1)
        i = int(np.argmin(d))
        return i if d[i] <= self.tol_unique else -1


class SdfGrid:
    """Regular grid of signed distance samples at cell centers.

    values are stored row-major with x fastest; ``origin`` is the center of
    the first cell and ``spacing`` the (isotropic) cell edge length.
    """

    def __init__(self, dim, resolution, origin, spacing, values):
        self.dim = int(dim)
        self.resolution = tuple(int(r) for r in resolution)
        if len(self.resolution) != self.dim:
            raise ValueError("resolution rank does not match dim")
        self.origin = np.asarray(origin, dtype=np.float64)
        self.spacing = float(spacing)
        values = np.asarray(values, dtype=np.float64).ravel()
        expected = int(np.prod(self.resolution))
        if values.shape[0] != expected:
            raise ValueError(
                f"value count {values.shape[0]} != resolution product {expected}")
        self.values = values

    @property
    def n(self):
        return self.values.shape[0]

    def cell_centers(self):
        """All cell centers as an (n, d) array, x fastest."""
        axes = [self.origin[a] + self.spacing * np.arange(self.resolution[a])
                for a in range(self.dim)]
        if self.dim == 2:
            xx, yy = np.meshgrid(axes[0], axes[1], indexing="xy")
            return np.column_stack([xx.ravel(), yy.ravel()])
        xs, ys, zs = axes
        pts = np.empty((self.n, 3))
        i = 0
        for z in zs:
            for y in ys:
                pts[i:i + len(xs), 0] = xs
                pts[i:i + len(xs), 1] = y
                pts[i:i + len(xs), 2] = z
                i += len(xs)
        return pts

    def flat_index(self, idx):
        """Row-major (x fastest) flat index of an integer cell coordinate."""
        flat = 0
        for a in reversed(range(self.dim)):
            flat = flat * self.resolution[a] + idx[a]
        return flat

    def to_sample_set(self, tol_unique=TOL_UNIQUE, tol_geom=TOL_GEOM):
        return SampleSet(self.cell_centers(), self.values,
                         tol_unique=tol_unique, tol_geom=tol_geom)

    def copy(self):
        return SdfGrid(self.dim, self.resolution, self.origin.copy(),
                       self.spacing, self.values.copy())


def default_kappa(n, dim):
    """Default relevant-sphere cap: 4*sqrt(n) in 2D, 8*n^(1/3) in 3D."""
    if dim == 2:
        return int(round(4.0 * np.sqrt(n)))
    return int(round(8.0 * n ** (1.0 / 3.0)))


def default_tau(n, dim):
    """Default subdivision depth: 2 for large 3D inputs, else 3."""
    return 2 if (dim == 3 and n > 20 ** 3) else 3


def default_max_radius(dim):
    """Radius cap for stand-alone interpolation: the diameter of [-1,1]^d."""
    return 2.0 * np.sqrt(dim)
