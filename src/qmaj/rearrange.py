"""Rearrangements and Lorenz curves of sampled quasiprobability functions.

Everything here reads the weighted rearrangement of f that ``_rearrange``
builds from one ascending sort of the keys f/q, with q = 1 for the regular
rearrangement.  ``_split`` cuts the sorted keys into both sides: the
negative side is the head of keys below 0, ranked by increasing key, and
the positive side the tail above 0 read backwards, ranked by decreasing
key.  Zero and NaN keys (NaN sorts last) belong to neither.  A cell adds
q_i * dmu_i to the abscissa s (the measure nu) and f_i * dmu_i to the
ordinate L.  The rearrangement is constant on each level set of f/q, so it
keeps one breakpoint per distinct key: the end of each run of tied cells.
Three producers (the product and octant rules below, and the cells against
a reference) build an unsorted table of keys with their nu and mass, and
share one unstable argsort of the keys, since the order of tied cells only
changes the rounding of their run's sums.  The regular rearrangement of the
cells is the one path without an argsort: its keys are the values, so it
sorts them directly.
``_merged`` merges the sorted breakpoints of two curves in linear time.

Product rule: when f = f1 x f2 keeps its factors (a rendered ``tensor``)
and q is absent or a product q1 x q2 over the same modes, the level sets of
f/q are the pairs of level sets of f1/q1 and f2/q2.  A pair has key k1*k2,
nu n1*n2 and mass m1*m2, so the rearrangement sorts the pairs of the two
factors' rearrangements rather than the cells: same-sign pairs get a
positive key, mixed pairs a negative one, and the sorted pairs split like
sorted cells.  There are at most as many pairs as cells.  Any other f, such
as a mix of tensors, sorts its cells.
The product keys round differently from the cell keys (f1*f2)/(q1*q2), so
the two paths agree to rounding, not bitwise.

Octant rule: when f on a one-mode grid equals itself under both mirrors
and the transpose of the grid (``SampledDistribution.octant``, checked on
the values; q, when given, must pass the same check), its cells come in
orbits of 4 equal cells on the diagonals and 8 elsewhere.  The
rearrangement then sorts the octant 0 < x <= p of the grid, an eighth of
the cells, with nu m*q*dmu and mass m*f*dmu for orbit size m.  Fock,
thermal and lossy states and the thermal references fold, since the grid
axis is exactly antisymmetric; cat, cubic, dephased and perturbed functions
and NaN cells do not.  The keys are the cell keys, bitwise; s and L add m
equal terms in one product, so they round differently from the cell sort.

* ``lorenz_curves`` and ``relative_lorenz_curves`` keep (s, L) of each side
  as a piecewise-linear curve, concave (positive) or convex (negative).
* ``_shifted_integrals`` reads the sorted keys with (s, L) to give the
  integrals of (f - u*q)+ and (f + u*q)- for many u by binary search.
* ``piecewise_plus_integral`` and ``piecewise_minus_integral`` evaluate the
  same integrals from their definition, with no sort, as the reference.

Curves are weighted sorts of the sampled values, not inversions of the step
distribution functions: exact for the samples and O(M log M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .grids import ReferenceDistribution, SampledDistribution, same_grid

POSITIVE = "positive"
NEGATIVE = "negative"

DECIMATION_TOL = 1e-6  # sup-norm target of LorenzCurve.decimated


def distribution_function(f: SampledDistribution, t: float) -> float:
    """D_f(t): measure of the cells where f exceeds t."""
    v = f.sorted_values
    return float(v.size - np.searchsorted(v, t, side="right")) * f.grid.cell_measure


def codistribution_function(f: SampledDistribution, t: float) -> float:
    """C_f(t): measure of the cells where f lies below t."""
    v = f.sorted_values
    below = 0 if math.isnan(t) else np.searchsorted(v, t, side="left")
    return float(below) * f.grid.cell_measure


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear cumulative curve with breakpoints (s_k, L_k).

    ``s`` starts at 0 and is nondecreasing: a run of cells whose weights are
    too small to move s leaves a zero-width segment.  Beyond the last
    breakpoint the curve continues flat up to ``domain_end`` (the measure of
    the truncated window, nu-rescaled for relative curves).
    """

    s: np.ndarray
    L: np.ndarray
    side: str
    domain_end: float
    truncation_sensitive: bool = False
    decimation_error: float = 0.0

    def __post_init__(self):
        for name in ("s", "L"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, at) -> np.ndarray:
        """Evaluate by binary search + linear interpolation (flat plateau)."""
        return np.interp(at, self.s, self.L)

    @property
    def final(self) -> float:
        return float(self.L[-1])

    def slopes(self) -> np.ndarray:
        return np.diff(self.L) / np.diff(self.s)

    def slope_at(self, at: float) -> float:
        """Rearrangement value at cumulative measure ``at``."""
        k = max(int(np.searchsorted(self.s, at, side="left")), 1)
        if k >= len(self.s):
            return 0.0
        return float((self.L[k] - self.L[k - 1]) / (self.s[k] - self.s[k - 1]))

    def decimated(self, max_points: int = 100_000) -> "LorenzCurve":
        """Subsample breakpoints, tracking the exact sup-norm error incurred.

        Seeds cut points uniformly in abscissa and in ordinate, then
        bisects every segment whose dropped breakpoints deviate from the
        chord by more than ``DECIMATION_TOL`` until the tolerance or the
        budget is reached.  Relative curves against rapidly decaying
        references have near-vertical heads where slope-based selection
        would fail; the ordinate cuts and the refinement handle those.
        """
        m = len(self.s)
        if m <= max_points:
            return self
        k = max(max_points // 4, 2)
        idx_s = np.linspace(0, m - 1, k).round().astype(int)
        ordinate = self.L if self.L[-1] >= self.L[0] else -self.L
        idx_l = np.searchsorted(
            ordinate, np.linspace(ordinate[0], ordinate[-1], k)
        )
        kept = np.unique(np.concatenate([idx_s, idx_l, [0, m - 1]]))
        kept = np.clip(kept, 0, m - 1)
        err = 0.0
        for _ in range(24):
            deviation = np.abs(np.interp(self.s, self.s[kept], self.L[kept]) - self.L)
            err = float(deviation.max())
            if err <= DECIMATION_TOL or len(kept) >= max_points:
                break
            starts, ends = kept[:-1], kept[1:]
            seg_max = np.maximum.reduceat(deviation, starts)
            bad = seg_max > DECIMATION_TOL
            mids = (starts[bad] + ends[bad]) // 2
            mids = mids[(mids > starts[bad]) & (mids < ends[bad])]
            if len(mids) == 0:
                break
            kept = np.unique(np.concatenate([kept, mids]))
        return replace(
            self,
            s=self.s[kept],
            L=self.L[kept],
            decimation_error=max(self.decimation_error, err),
        )


class _Rearrangement(NamedTuple):
    keys: np.ndarray  # ranking keys f/q in rank order
    s: np.ndarray     # cumulative nu measure, s[0] = 0
    L: np.ndarray     # cumulative integral of f, L[0] = 0


def _cumulative(steps: np.ndarray) -> np.ndarray:
    out = np.zeros(len(steps) + 1)
    np.cumsum(steps, out=out[1:])
    return out


def _side(keys: np.ndarray, nu: np.ndarray, mass: np.ndarray) -> _Rearrangement:
    # tied cells share the slope f/q, so a breakpoint sits only at the last
    # cell of each run of equal keys; ``ends`` counts the cells up to it
    last = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    ends = np.flatnonzero(last) + 1
    at = np.concatenate([[0], ends])
    return _Rearrangement(keys[ends - 1], _cumulative(nu)[at], _cumulative(mass)[at])


def _split(
    keys: np.ndarray, nu: np.ndarray, mass: np.ndarray
) -> tuple[_Rearrangement, _Rearrangement]:
    """Both sides from ascending keys (NaN last) with each one's nu and mass.

    The negative side is the head below the first key >= 0, the positive
    side the tail after the last zero key, read backwards; zero and NaN keys
    belong to neither.
    """
    lo, end = np.searchsorted(keys, [0.0, np.nan])
    hi = np.searchsorted(keys, 0.0, side="right")
    pos = _side(keys[hi:end][::-1], nu[hi:end][::-1], mass[hi:end][::-1])
    return pos, _side(keys[:lo], nu[:lo], mass[:lo])


def _rearrange(
    f: SampledDistribution, q: ReferenceDistribution | None = None
) -> tuple[_Rearrangement, _Rearrangement]:
    """The positive and negative rearrangements of f (see the module notes)."""
    parts = f.factors
    if q is not None:
        same_grid(f, q)
        if [r.grid for r in q.factors] != [h.grid for h in parts]:
            parts = ()
    dmu = f.grid.cell_measure
    if parts:
        # keys carry the sign of their side, so the same-sign pairs of level
        # sets get a positive key k1*k2 and the mixed pairs a negative one
        keys = nu = mass = np.ones(1)
        for h, r in zip(parts, [None] * len(parts) if q is None else q.factors):
            both = _rearrange(h, r)
            keys = np.multiply.outer(keys, np.concatenate([b.keys for b in both]))
            nu = np.multiply.outer(nu, np.concatenate([np.diff(b.s) for b in both]))
            mass = np.multiply.outer(mass, np.concatenate([np.diff(b.L) for b in both]))
        keys, nu, mass = keys.ravel(), nu.ravel(), mass.ravel()
    elif f.octant is not None and (q is None or q.octant is not None):
        # each octant cell stands for the 4 (diagonal) or 8 equal cells of
        # its orbit under the mirrors and the transpose of the grid
        qo = 1.0 if q is None else q.octant
        i, j = np.triu_indices(f.grid.shape[0] // 2)
        m = np.where(i == j, 4.0, 8.0)
        keys, nu, mass = f.octant / qo, m * qo * dmu, m * f.octant * dmu
    elif q is None:
        # tied keys are equal values here: sort the values themselves
        vals = np.sort(f.values)
        return _split(vals, np.broadcast_to(dmu, vals.shape), vals * dmu)
    else:
        keys, nu, mass = f.values / q.values, q.values * dmu, f.values * dmu
    order = np.argsort(keys)
    return _split(keys[order], nu[order], mass[order])


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted arrays, each shared entry kept once.

    A stable sort (timsort) merges the two sorted runs in linear time, where
    a set union would sort their concatenation from scratch.
    """
    both = np.concatenate([a, b])
    both.sort(kind="stable")
    if both.size == 0:
        return both
    keep = np.empty(both.shape, dtype=bool)
    keep[0] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def _curves(
    f: SampledDistribution, q: ReferenceDistribution | None
) -> tuple[LorenzCurve, LorenzCurve]:
    end = f.grid.total_measure if q is None else q.total_integral
    sensitive = q is not None and not q.integrable
    return tuple(
        LorenzCurve(r.s, r.L, side, end, sensitive)
        for r, side in zip(_rearrange(f, q), (POSITIVE, NEGATIVE))
    )


def lorenz_curves(f: SampledDistribution) -> tuple[LorenzCurve, LorenzCurve]:
    """Positive and negative Lorenz curves of f on its truncated window."""
    return _curves(f, None)


def relative_lorenz_curves(
    f: SampledDistribution, q: ReferenceDistribution
) -> tuple[LorenzCurve, LorenzCurve]:
    """Lorenz curves of f relative to q, abscissa in the nu measure.

    Cells are ranked by the ratio f/q; a breakpoint contributes q_i*dmu to s
    and f_i*dmu to L, so the endpoints (1 + NV and -NV for normalized f) do
    not depend on q.
    """
    return _curves(f, q)


def curves(f: SampledDistribution, q: ReferenceDistribution | None = None):
    """Regular or relative curve pair depending on whether q is given."""
    return lorenz_curves(f) if q is None else relative_lorenz_curves(f, q)


def _shift(u: float, q: ReferenceDistribution | None):
    if not (math.isfinite(u) and u >= 0):
        raise ConfigError(f"u must be finite and >= 0, got {u}")
    return u if q is None else u * q.values


def piecewise_plus_integral(
    f: SampledDistribution, u: float, q: ReferenceDistribution | None = None
) -> float:
    """Integral of (f - u*q)+ over the window (q = 1 when absent)."""
    return float(np.maximum(f.values - _shift(u, q), 0.0).sum() * f.grid.cell_measure)


def piecewise_minus_integral(
    f: SampledDistribution, u: float, q: ReferenceDistribution | None = None
) -> float:
    """Integral of (f + u*q)- over the window (q = 1 when absent)."""
    return float(np.minimum(f.values + _shift(u, q), 0.0).sum() * f.grid.cell_measure)


def _shifted_integrals(
    pos: _Rearrangement, neg: _Rearrangement, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of (f - u*q)+ and (f + u*q)- for every u >= 0 at once.

    ``pos`` and ``neg`` are the two rearrangements of f relative to q.  The
    cells where f > u*q are those whose key f/q lies strictly above u: the
    first k runs of the positive rearrangement, so the integral is
    L[k] - u*s[k].  The j keys strictly below -u give L[j] + u*s[j] on the
    negative side.  The lookup searches the keys, not the curve slopes: a
    weight too small to move s leaves a zero-width segment whose slope is
    undefined.
    """
    k = np.searchsorted(-pos.keys, -u, side="left")
    j = np.searchsorted(neg.keys, -u, side="left")
    return pos.L[k] - u * pos.s[k], neg.L[j] + u * neg.s[j]


def resample_pair(
    pos: LorenzCurve,
    neg: LorenzCurve,
    points: int = 2000,
    s_min: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-abscissa resampling of a curve pair for CSV/plot export.

    The abscissa is log spaced from ``s_min`` when it is given (the curves
    start at s = 0), and linear from 0 otherwise.
    """
    if points < 2:
        raise ConfigError(f"need at least 2 resampling points, got {points}")
    end = max(pos.domain_end, neg.domain_end)
    if s_min is None:
        grid = np.linspace(0.0, end, points)
    else:
        grid = np.geomspace(s_min, end, points)
    return grid, pos(grid), neg(grid)
