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
import os
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from typing import NamedTuple

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
        """Fractional cell indices of physical coordinates along one axis.

        A cell centre as ``axis()`` computes it, k + 1/2 cells from the
        origin, maps to its index exactly, from that offset in cells; the
        quotient by the cell size that places every other coordinate is off
        there by up to 1.1e-13 on 700 points, and not symmetrically.
        """
        h = self.cell_size
        mid = 0.5 * (self.points_per_axis - 1)
        idx = (coords + self.half_width) / h - 0.5
        offset = np.rint(idx) - mid
        centre = offset * h == coords
        if centre.any():
            idx[centre] = offset[centre] + mid
        return idx


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


def _meet(*groups: str) -> str:
    """The largest group within all of ``groups`` ("" is the trivial one)."""
    return "".join(c for c in groups[0] if all(c in g for g in groups))


def _representatives(grid: GridSpec, group: str):
    """Each cell's orbit representative (flat), and which cells are one: the
    cell with x > 0 if the group holds the mirror "x" (x -> -x), p > 0 if it
    holds "p" (p -> -p) and x <= p if it holds "t" (the transpose)."""
    n = grid.points_per_axis
    i, j = np.arange(n, dtype=np.int32)[:, None], np.arange(n, dtype=np.int32)  # broadcast
    i = np.maximum(i, n - 1 - i) if "x" in group else i
    j = np.maximum(j, n - 1 - j) if "p" in group else j
    i, j = (np.minimum(i, j), np.maximum(i, j)) if "t" in group else (i, j)
    rep = (i * n + j).ravel()
    return rep, rep == np.arange(n * n, dtype=np.int32)


class _Orbits(NamedTuple):
    cells: np.ndarray  # the flat index of each fold entry's cell, ascending
    size: np.ndarray   # the cells in each entry's orbit


@lru_cache(maxsize=16)
def _orbits(grid: GridSpec, group: str) -> _Orbits:
    """The fold of a one-mode grid's group: the octant 0 < x <= p ("xpt", in
    ``np.triu_indices`` order), the quadrant x, p > 0 ("xp") or a half.  No
    cell centre lies on an axis (N is even), so an orbit has 4 cells on the
    octant's diagonal and 8 off it, 4 on the quadrant and 2 on a half."""
    rep, own = _representatives(grid, group)
    size = np.bincount(np.cumsum(own, dtype=np.int32)[rep] - 1).astype(float)
    if size.min() == size.max():  # one orbit size, kept as one number
        size = np.broadcast_to(size[0], size.shape)
    cells = np.flatnonzero(own)
    cells.setflags(write=False)
    return _Orbits(cells, size)


@lru_cache(maxsize=8)
def _index(grid: GridSpec, group: str) -> np.ndarray:
    """(N, N): the fold entry of each cell's orbit; kept, read-only, where read."""
    rep, own = _representatives(grid, group)
    index = (np.cumsum(own, dtype=np.intp) - 1)[rep].reshape(grid.shape)
    index.setflags(write=False)
    return index


def _restrict(grid: GridSpec, entries: np.ndarray, group: str, to: str = "") -> np.ndarray:
    """The flat entries of a fold of ``group`` read on the fold of ``to`` (on
    every cell for ""): each takes the entry whose orbit holds its cell."""
    if to == group:
        return entries
    index = _index(grid, group).ravel()
    return entries.ravel()[index[_orbits(grid, to).cells] if to else index]


def _entries(f: "SampledDistribution", group: str) -> np.ndarray:
    """f on the fold of a subgroup of its own group, on its cells for ""."""
    return _restrict(f.grid, f.fold, f.group, group) if group else f.values


def _cells(grid, values, group: str = "") -> np.ndarray:
    """A flat, contiguous, read-only array of one entry per cell or fold entry."""
    if not group:
        expected, name = math.prod(grid.shape), "values"
    elif isinstance(grid, GridSpec) and grid.modes == 1 and group in ("xpt", "xp", "x", "p"):
        expected, name = len(_orbits(grid, group).cells), f"fold {group!r}"
    else:
        raise ConfigError(f"no fold of group {group!r} on {grid}")
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != expected:
        raise ConfigError(f"{name} has {vals.size} entries, grid has {expected}")
    vals = np.ascontiguousarray(vals)
    vals.setflags(write=False)
    return vals


def _new_values_lock() -> None:
    # held while a lazy ``values`` is built, by whichever thread builds it;
    # reentrant, since a product's cells read its factors' cells.  A child
    # forked while another thread held it would wait on it for ever, so the
    # child makes its own.
    global _BUILDING_VALUES
    _BUILDING_VALUES = threading.RLock()


_new_values_lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_values_lock)


@dataclass(frozen=True, eq=False)
class SampledDistribution:
    """A real function sampled on the cells of a grid or discrete space.

    Every cell carries the uniform measure of its space.  A function is
    built from exactly one storage form; any other combination raises
    ConfigError:

    * ``values``, the flat (C-order) array of cell-center samples;
    * ``factors``, the factors of a tensor product, each sampled on the grid
      of its own modes (equal parts of a rendered ``tensor`` are one object,
      see ``rearrange``); ``total_integral`` is the product of their totals;
    * ``fold``, one entry per orbit (``_orbits``) of the ``group`` of grid
      symmetries that the one-mode function is invariant under: "xpt" (the
      default: the octant), "xp" (the quadrant), "x" or "p" (a half);
      ``total_integral`` is the orbit-weighted sum.  ``states.render`` and
      ``states.reference`` build a state whose closed form is bitwise
      invariant under a group this way, and ``channels.apply_gaussian``
      keeps an octant (see there).  ``group`` is "" for the other forms.

    Instances are immutable and their arrays read-only, and compare and hash
    by identity, so neither reads cells.  For the last two forms ``values``
    (the outer product, or each fold entry copied over its orbit) is built
    on first read, once under a lock whatever the threads reading it, and
    kept.  The calls that read cells build it: ``renormalized``, ``as_nd``,
    channel application to its input (dephasing, and a Gaussian kernel
    that does not keep the octant), the divergence from, or a
    rearrangement against, a reference with which it shares no fold (nor,
    for a product, its modes), the piecewise integrals, and grid-file
    writes of a product.  The others read only the
    factors or the fold, a fold against a reference on the fold of the
    groups' ``_meet``: rendering, ``reference``, the curves, the
    distribution functions, ``compare``, ``statement4_check``,
    ``scan_threshold``, ``truncation_report`` (of a fold its boundary
    orbits), the pointwise monotones, and grid-file writes of a fold (each
    entry's line placed at every cell of its orbit).  The total, the
    reference check, a product's truncation report and the pointwise
    monotones read the reductions below, one rule per storage form:
    ``_cell_sum`` (a fold's entries weighted by orbit size, a product's
    factors' sums), ``_masses`` and ``_span`` (a product's from its
    factors' masses and spans).
    """

    grid: GridSpec | DiscreteSpace
    values: np.ndarray | None
    factors: tuple["SampledDistribution", ...] = field(default=(), repr=False)
    fold: np.ndarray | None = field(default=None, repr=False, kw_only=True)
    group: str = field(default="xpt", repr=False, kw_only=True)
    total_integral: float = field(init=False)

    def __post_init__(self):
        forms = (self.values is not None, bool(self.factors), self.fold is not None)
        if sum(forms) != 1:
            raise ConfigError("give exactly one of values, factors and fold")
        if self.fold is None:
            object.__setattr__(self, "group", "")
        if self.factors:
            _check_factors(self.grid, self.factors)
            # absent until the first read lands in __getattr__
            object.__delattr__(self, "values")
            total = math.prod(h.total_integral for h in self.factors)
        else:
            if self.fold is not None:
                object.__delattr__(self, "values")
                object.__setattr__(self, "fold", _cells(self.grid, self.fold, self.group))
            else:
                object.__setattr__(self, "values", _cells(self.grid, self.values))
            total = float(_cell_sum(self, lambda v: v) * self.grid.cell_measure)
        object.__setattr__(self, "total_integral", total)

    def __getattr__(self, name):
        if name != "values":
            raise AttributeError(name)
        # both rearrangements of a pair may read one function's cells at
        # once; the later reader finds them built when it gets the lock
        with _BUILDING_VALUES:
            vals = vars(self).get("values")
            if vals is None:
                if self.factors:
                    factors = (h.values for h in self.factors)
                    vals = _cells(self.grid, reduce(np.multiply.outer, factors))
                else:
                    vals = _cells(self.grid, _restrict(self.grid, self.fold, self.group))
                object.__setattr__(self, "values", vals)
        return vals

    def renormalized(self) -> "SampledDistribution":
        if self.total_integral == 0.0:
            raise ConfigError("cannot renormalize a function with zero integral")
        return SampledDistribution(self.grid, self.values / self.total_integral)

    def as_nd(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True, eq=False)
class ReferenceDistribution(SampledDistribution):
    """Strictly positive weight function q for relative majorization.

    Its ``total_integral`` is nu(X), the nu measure of the window.
    ``integrable`` is False when the function on the untruncated space has no
    finite integral (growing Gaussians from negative-temperature references);
    curves built against such a reference are flagged truncation sensitive.
    Positivity and finiteness of its cells and total are checked on its
    ``_span``.  A product's cells are read only by a rearrangement of a
    function that is not a product over the same modes, the piecewise
    integrals and the divergence of such a function.
    """

    integrable: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is refused below
            super().__post_init__()
        smallest, largest = _span(self)
        if not smallest > 0:
            raise ConfigError("reference distribution must be strictly positive")
        if not (largest < math.inf and self.total_integral < math.inf):
            raise ConfigError(
                f"reference distribution must be finite, but its largest cell "
                f"is {largest:g} and its total {self.total_integral:g}"
            )


def _cell_sum(f: SampledDistribution, term, q: ReferenceDistribution | None = None):
    """The sum of term(f) over the cells, of term(f, q) when q is given.

    A fold f (and q, when given) is read on the fold of their groups' meet
    with each entry's orbit size as its weight, and a product (against a
    product over the same modes) as the product of its factors' sums, for a
    multiplicative term; so their cells are not built.
    """
    refs = [None] * len(f.factors) if q is None else q.factors
    if f.factors and (q is None or [h.grid for h in f.factors] == [r.grid for r in refs]):
        return math.prod(_cell_sum(h, term, r) for h, r in zip(f.factors, refs))
    both = (f,) if q is None else (f, q)
    group = _meet(*(h.group for h in both))
    sums = term(*(_entries(h, group) for h in both))
    return (_orbits(f.grid, group).size * sums).sum() if group else sums.sum()


def _masses(f: SampledDistribution) -> tuple[float, float]:
    """The sums of f's positive part and of its negative part over the cells.

    A product's are P1*P2 + N1*N2 and P1*N2 + N1*P2 nested over its factors,
    as its cell is positive where its factors' signs agree.
    """
    if not f.factors:
        return tuple(_cell_sum(f, lambda v: np.maximum(s * v, 0.0)) for s in (1.0, -1.0))
    pos, neg = 1.0, 0.0
    for h in f.factors:
        p, n = _masses(h)
        pos, neg = pos * p + neg * n, pos * n + neg * p
    return pos, neg


def _span(f: SampledDistribution) -> tuple[float, float]:
    """The smallest and the largest cell of f; NaN both if a cell is NaN.

    A product's are the smallest and the largest of the four products of
    its factors' spans, nested over its factors.  Rounding is monotone, so
    they are bitwise the cells' extremes, and the cells are not built.
    """
    if not f.factors:
        cells = f.values if f.fold is None else f.fold  # holds every value
        return float(cells.min()), float(cells.max())
    lo = hi = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in the cells
        for h in f.factors:
            ends = np.multiply.outer((lo, hi), _span(h))
            lo, hi = float(ends.min()), float(ends.max())
    return lo, hi


def same_grid(a, b) -> None:
    """Raise GridMismatchError unless a and b share the same space."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass(frozen=True)
class TruncationReport:
    """Diagnostics for a chosen truncation window."""

    normalization_defect: float
    boundary_max: float


def truncation_report(f: SampledDistribution) -> TruncationReport:
    """|1 - integral| plus the largest |f| on the window boundary.

    The boundary of a product is the union, over its factors, of one
    factor's boundary times the other factors' whole windows.  Rounding is
    monotone, so the largest |cell| there is the product, in factor order,
    of that factor's boundary maximum and the others' largest |cells|
    (from their spans).  A fold is read at the entries of its boundary
    orbits, so its cells are not built.
    """
    defect = abs(1.0 - f.total_integral)
    if f.fold is not None:
        index = _index(f.grid, f.group)
        edge = f.fold[np.concatenate([index[[0, -1]], index[:, [0, -1]].T])]
        return TruncationReport(defect, float(np.abs(edge).max()))
    if f.factors:
        bounds = [truncation_report(h).boundary_max for h in f.factors]
        peaks = [max(map(abs, _span(h))) for h in f.factors]
        bmax = max(math.prod(peaks[:i] + [b] + peaks[i + 1:]) for i, b in enumerate(bounds))
        return TruncationReport(defect, bmax)
    nd = f.as_nd()
    bmax = 0.0
    for ax in range(nd.ndim):
        lo = abs(np.take(nd, 0, axis=ax)).max()
        hi = abs(np.take(nd, -1, axis=ax)).max()
        bmax = max(bmax, float(lo), float(hi))
    return TruncationReport(defect, bmax)
