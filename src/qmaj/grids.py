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
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

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
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ConfigError(
                f"half_width must be finite and > 0, got {self.half_width}"
            )
        n = self.points_per_axis
        if n < 2 or n % 2 != 0:
            raise ConfigError(f"points_per_axis must be even and >= 2, got {n}")
        try:
            measures = (self.cell_measure, self.total_measure)
        except OverflowError:  # a float power that overflows raises
            measures = (math.inf,)
        if not all(0 < m < math.inf for m in measures):
            raise ConfigError(
                f"cell and window measures of half_width={self.half_width} "
                f"on {n} points over {self.naxes} axes must be finite and > 0"
            )
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
        """Cell-center coordinates along one axis (identical for all axes).

        The positive half is (k + 1/2) * cell_size and the negative half its
        mirror, so ``ax == -ax[::-1]`` holds bitwise: mirrored cells sample
        the same |coordinate|, and each coordinate is rounded relative to
        itself rather than to the half-width.
        """
        half = (np.arange(self.points_per_axis // 2) + 0.5) * self.cell_size
        return np.concatenate([-half[::-1], half])

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


def _check_factors(grid, factors) -> None:
    """Raise ConfigError unless the factors' grids tile ``grid`` by modes."""
    grids = [h.grid for h in factors]
    if grids and not (
        isinstance(grid, GridSpec)
        and all(
            isinstance(g, GridSpec) and g == replace(grid, modes=g.modes)
            for g in grids
        )
        and sum(g.modes for g in grids) == grid.modes
    ):
        raise ConfigError(f"factor grids {grids} do not tile {grid}")


def _cells(grid, values) -> np.ndarray:
    """``values`` as a flat, contiguous, read-only array of one per cell."""
    vals = np.asarray(values, dtype=float).ravel()
    expected = int(np.prod(grid.shape))
    if vals.size != expected:
        raise ConfigError(f"values has {vals.size} entries, grid has {expected} cells")
    vals = np.ascontiguousarray(vals)
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True)
class SampledDistribution:
    """A real function sampled on the cells of a grid or discrete space.

    ``values`` is the flat (C-order) array of cell-center samples; every cell
    carries the uniform measure of its space.  Instances are immutable; the
    value buffer is locked against writes.  ``sorted_values``, which the
    distribution functions search, and ``octant``, which the rearrangement
    sorts, are computed on first read and kept.

    ``factors`` holds the factors of a tensor product, each sampled on the
    grid of its own modes; it is empty for any other function.  A product
    may be built with ``values=None``: its ``total_integral`` is then the
    product of the factors' totals, and ``values``, their outer product, is
    built on first read and kept.  The calls that read cells build it:
    ``renormalized``, ``as_nd``, grid-file writes, channel application, the
    pointwise monotones, the distribution functions, ``ratio_breakpoints``,
    the piecewise integrals, and a rearrangement against a reference that
    is not a product over the same modes.  Rendering, ``reference``,
    ``truncation_report``, the curves, ``compare`` and ``statement4_check``
    of products read only the factors.
    """

    grid: GridSpec | DiscreteSpace
    values: np.ndarray | None
    factors: tuple["SampledDistribution", ...] = field(
        default=(), compare=False, repr=False
    )
    total_integral: float = field(init=False)

    def __post_init__(self):
        _check_factors(self.grid, self.factors)
        if self.values is None and self.factors:
            # absent until the first read lands in __getattr__
            object.__delattr__(self, "values")
            total = math.prod(h.total_integral for h in self.factors)
        else:
            object.__setattr__(self, "values", _cells(self.grid, self.values))
            total = float(self.values.sum() * self.grid.cell_measure)
        object.__setattr__(self, "total_integral", total)

    def __getattr__(self, name):
        factors = self.__dict__.get("factors")
        if name != "values" or not factors:
            raise AttributeError(name)
        vals = _cells(self.grid, reduce(np.multiply.outer, (h.values for h in factors)))
        object.__setattr__(self, "values", vals)
        return vals

    def renormalized(self) -> "SampledDistribution":
        if self.total_integral == 0.0:
            raise ConfigError("cannot renormalize a function with zero integral")
        return SampledDistribution(self.grid, self.values / self.total_integral)

    def as_nd(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """The values in ascending order; NaN sorts last and is cut off."""
        v = np.sort(self.values)
        v = v[: np.searchsorted(v, np.nan)]
        v.setflags(write=False)
        return v

    @cached_property
    def octant(self) -> np.ndarray | None:
        """The cells in the octant 0 < x <= p of a one-mode grid, or None.

        Only a function whose values equal themselves under both mirrors and
        the transpose of the grid folds; that is checked on the values, so
        NaN cells never fold.  +0.0 and -0.0 compare equal, but zero keys
        belong to neither side of a rearrangement.
        """
        shape = self.grid.shape
        if len(shape) != 2:
            return None
        v = self.values.reshape(shape)
        if not all(np.array_equal(v, w) for w in (v[::-1], v[:, ::-1], v.T)):
            return None
        h = shape[0] // 2
        fold = v[h:, h:][np.triu_indices(h)]
        fold.setflags(write=False)
        return fold


@dataclass(frozen=True)
class ReferenceDistribution(SampledDistribution):
    """Strictly positive weight function q for relative majorization.

    Its ``total_integral`` is nu(X), the nu measure of the window.
    ``integrable`` is False when the function on the untruncated space has no
    finite integral (growing Gaussians from negative-temperature references);
    curves built against such a reference are flagged truncation sensitive.
    A product's positivity is checked on its factors: its cells are read
    only by a rearrangement of a function that is not a product over the
    same modes, the piecewise integrals, the divergence monotone and
    ``ratio_breakpoints``.
    """

    integrable: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        # positive factors give positive cells unless the smallest cell, the
        # rounded product of the factors' smallest values, underflows
        smallest = (
            self.values.min() if "values" in self.__dict__
            else reduce(operator.mul, (r.values.min() for r in self.factors))
        )
        if not smallest > 0:
            raise ConfigError("reference distribution must be strictly positive")


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
    """|1 - integral| plus the largest |f| on the window boundary.

    The boundary of a product is the union, over its factors, of one
    factor's boundary times the other factors' whole windows.  Rounding is
    monotone, so the largest |cell| there is the product, in factor order,
    of that factor's boundary maximum and the others' largest |values|.
    """
    defect = abs(1.0 - f.total_integral)
    if f.factors:
        bounds = [truncation_report(h).boundary_max for h in f.factors]
        peaks = [float(np.abs(h.values).max()) for h in f.factors]
        bmax = max(
            reduce(operator.mul, peaks[:i] + [b] + peaks[i + 1:])
            for i, b in enumerate(bounds)
        )
        return TruncationReport(defect, bmax)
    nd = f.as_nd()
    bmax = 0.0
    for ax in range(nd.ndim):
        lo = abs(np.take(nd, 0, axis=ax)).max()
        hi = abs(np.take(nd, -1, axis=ax)).max()
        bmax = max(bmax, float(lo), float(hi))
    return TruncationReport(defect, bmax)
