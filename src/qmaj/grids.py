"""Truncated measure spaces at desk scale, and functions sampled on them.

A phase-space window ``[-L, L]^{2n}`` is discretized into ``N`` cells per
axis; every cell carries the same measure ``(2L/N)^{2n}`` and functions are
sampled at cell centers (midpoint rule).  Discrete index sets with counting
measure use :class:`DiscreteSpace` instead.

Conventions: the ``hbar`` tag records which Wigner normalization the grid
coordinates are meant for.  Under ``"one"`` the default window is widened by
sqrt(2) so that both conventions sample the same physical phase-space points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatchError

HBAR_HALF = "half"
HBAR_ONE = "one"

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over 2n-dimensional phase space.

    Attributes:
        modes: number of bosonic modes n; the grid has 2n axes (x1,p1,...).
        half_width: L, each axis covers [-L, L].
        points_per_axis: N, must be even and >= 2.
        hbar: "half" or "one" Wigner normalization tag.
    """

    modes: int = 1
    half_width: float = 7.0
    points_per_axis: int = 700
    hbar: str = HBAR_HALF

    def __post_init__(self):
        if self.modes < 1:
            raise ConfigError(f"modes must be >= 1, got {self.modes}")
        if self.half_width <= 0:
            raise ConfigError(f"half_width must be > 0, got {self.half_width}")
        n = self.points_per_axis
        if n < 2 or n % 2 != 0:
            raise ConfigError(f"points_per_axis must be even and >= 2, got {n}")
        if self.hbar not in (HBAR_HALF, HBAR_ONE):
            raise ConfigError(f"hbar must be 'half' or 'one', got {self.hbar!r}")

    @property
    def naxes(self) -> int:
        return 2 * self.modes

    @property
    def cell_size(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_measure(self) -> float:
        return self.cell_size ** self.naxes

    @property
    def total_measure(self) -> float:
        return (2.0 * self.half_width) ** self.naxes

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.naxes

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.naxes

    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis (identical for all axes)."""
        d = self.cell_size
        return -self.half_width + (np.arange(self.points_per_axis) + 0.5) * d

    def mesh(self) -> list[np.ndarray]:
        """Broadcastable cell-center coordinate views, one per axis.

        Axis order is (x1, p1, x2, p2, ...), row-major; entry k has shape
        (1, ..., N, ..., 1) so arithmetic between them broadcasts to the full
        grid without materializing coordinate arrays.
        """
        ax = self.axis()
        views = []
        for k in range(self.naxes):
            shape = [1] * self.naxes
            shape[k] = self.points_per_axis
            views.append(ax.reshape(shape))
        return views

    def index_of(self, coords: np.ndarray) -> np.ndarray:
        """Fractional cell indices of physical coordinates along one axis."""
        return (coords + self.half_width) / self.cell_size - 0.5


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite index set with counting measure (unit cell weights)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"size must be >= 1, got {self.size}")

    @property
    def cell_measure(self) -> float:
        return 1.0

    @property
    def total_measure(self) -> float:
        return float(self.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,)


def default_grid(modes: int = 1, hbar: str = HBAR_HALF) -> GridSpec:
    """Default comparison grids.

    Single mode: L=7, N=700 keeps the normalization defect below 1e-6 for
    every state in the test zoo.  Two modes: L=5, N=64 per axis (coarse,
    qualitative).  Under hbar="one" the window is widened by sqrt(2) so the
    sampled phase-space points coincide with the hbar="half" ones.
    """
    if modes == 1:
        nom = 7.0
        npts = 700
    elif modes == 2:
        nom = 5.0
        npts = 64
    else:
        raise ConfigError(f"no default grid for modes={modes}")
    if hbar == HBAR_ONE:
        nom *= _SQRT2
    return GridSpec(modes=modes, half_width=nom, points_per_axis=npts, hbar=hbar)


@dataclass(frozen=True)
class SampledDistribution:
    """A real function sampled on the cells of a grid or discrete space.

    ``values`` is the flat (C-order) array of cell-center samples; every cell
    carries the uniform measure of its space.  Instances are immutable; the
    value buffer is locked against writes.
    """

    grid: GridSpec | DiscreteSpace
    values: np.ndarray
    total_integral: float = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        expected = int(np.prod(self.grid.shape))
        if vals.size != expected:
            raise ConfigError(
                f"values has {vals.size} entries, grid has {expected} cells"
            )
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "total_integral", float(vals.sum() * self.grid.cell_measure)
        )

    def renormalized(self) -> "SampledDistribution":
        if self.total_integral == 0.0:
            raise ConfigError("cannot renormalize a function with zero integral")
        return SampledDistribution(self.grid, self.values / self.total_integral)

    def as_nd(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True)
class ReferenceDistribution:
    """Strictly positive weight function q for relative majorization.

    ``integrable`` is False when the function on the untruncated space has no
    finite integral (growing Gaussians from negative-temperature references);
    curves built against such a reference are flagged truncation sensitive.
    """

    grid: GridSpec | DiscreteSpace
    values: np.ndarray
    integrable: bool = True

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        expected = int(np.prod(self.grid.shape))
        if vals.size != expected:
            raise ConfigError(
                f"values has {vals.size} entries, grid has {expected} cells"
            )
        if not (vals > 0).all():
            raise ConfigError("reference distribution must be strictly positive")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def total_nu(self) -> float:
        """nu(X) of the truncated window: integral of q."""
        return float(self.values.sum() * self.grid.cell_measure)


def same_grid(a, b) -> None:
    """Raise GridMismatchError unless a and b share the same space."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass(frozen=True)
class TruncationReport:
    """Diagnostics for a chosen truncation window."""

    normalization_defect: float
    boundary_max: float

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return (
            f"normalization defect {self.normalization_defect:.3e}, "
            f"boundary max {self.boundary_max:.3e}"
        )


def truncation_report(f: SampledDistribution) -> TruncationReport:
    """|1 - integral| plus the largest |f| on the window boundary."""
    defect = abs(1.0 - f.total_integral)
    nd = f.as_nd()
    bmax = 0.0
    for ax in range(nd.ndim):
        lo = abs(np.take(nd, 0, axis=ax)).max()
        hi = abs(np.take(nd, -1, axis=ax)).max()
        bmax = max(bmax, float(lo), float(hi))
    return TruncationReport(defect, bmax)
